package strsim

import "testing"

var benchPairs = [][2]string{
	{"machinist", "mechanist"},
	{"Tim", "Kim"},
	{"confectioner", "confectionist"},
	{"Johannes Albrecht", "Johann Albrecht"},
	// Both sides over 64 bytes: Levenshtein's DP fallback.
	{
		"Department of mechanical engineering, building 4, second floor, room 12",
		"Department of mechanical engineering, bldg. 4, second floor, room 12a",
	},
}

func benchFunc(b *testing.B, f Func) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range benchPairs {
			_ = f(p[0], p[1])
		}
	}
}

func BenchmarkNormalizedHamming(b *testing.B)  { benchFunc(b, NormalizedHamming) }
func BenchmarkLevenshtein(b *testing.B)        { benchFunc(b, Levenshtein) }
func BenchmarkBandedLevenshtein(b *testing.B)  { benchFunc(b, BandedLevenshtein(0.8)) }
func BenchmarkDamerauLevenshtein(b *testing.B) { benchFunc(b, DamerauLevenshtein) }
func BenchmarkJaro(b *testing.B)               { benchFunc(b, Jaro) }
func BenchmarkJaroWinkler(b *testing.B)        { benchFunc(b, JaroWinkler) }
func BenchmarkQGramDice2(b *testing.B)         { benchFunc(b, QGramDice(2)) }
func BenchmarkLCS(b *testing.B)                { benchFunc(b, LongestCommonSubstring) }
func BenchmarkMongeElkanJaro(b *testing.B)     { benchFunc(b, MongeElkan(Jaro)) }
func BenchmarkSoundex(b *testing.B)            { benchFunc(b, Soundex) }
