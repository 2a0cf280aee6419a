package main

import (
	"math/rand"
	"sort"
)

// The benchmark's text generator draws Zipf-distributed words, lines
// broken near 80 columns, like workloads.GenerateText. It differs in one
// respect: the vocabulary is fixed, and the seed only chooses which words
// are drawn in which order. workloads.GenerateText derives the vocabulary
// from the seed as well, so its word lengths and hence the work per byte
// move with the seed; here runs on different seeds do the same amount of
// work and their spread measures the system, not the input.

const (
	vocabSeed = 1
	vocabSize = 10000
	zipfS     = 1.2
)

var vocab = buildVocab()

func buildVocab() []string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	rng := rand.New(rand.NewSource(vocabSeed))
	seen := make(map[string]bool, vocabSize)
	out := make([]string, 0, vocabSize)
	for len(out) < vocabSize {
		b := make([]byte, rng.Intn(8)+2)
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		if w := string(b); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// genText returns about size bytes of text drawn with the given seed.
func genText(size int64, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, vocabSize-1)
	b := make([]byte, 0, size+16)
	col := 0
	for int64(len(b)) < size {
		w := vocab[zipf.Uint64()]
		b = append(b, w...)
		col += len(w) + 1
		if col >= 80 {
			b = append(b, '\n')
			col = 0
		} else {
			b = append(b, ' ')
		}
	}
	return b
}

// matchKeys returns n string-match keys: for each of the Zipf ranks 40,
// 80, 160, ..., the first vocabulary word at or below that rank with at
// least seven letters. Their expected hit counts fall off geometrically
// and do not depend on the corpus seed.
func matchKeys(n int) []string {
	var keys []string
	seen := map[string]bool{}
	for rank := 40; len(keys) < n && rank < vocabSize; rank *= 2 {
		for r := rank; r < vocabSize; r++ {
			if w := vocab[r]; len(w) >= 7 && !seen[w] {
				seen[w] = true
				keys = append(keys, w)
				break
			}
		}
	}
	sort.Strings(keys)
	return keys
}
