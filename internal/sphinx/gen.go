// Package sphinx implements a keyword recognizer over synthetic 1-D
// audio in the structural style of CMU Sphinx — the paper's fourth
// supervised-learning subject. Real Sphinx decodes speech with HMMs
// over MFCC frames; our substitute keeps the stages that matter for
// autonomization: framing, energy-based voice-activity detection with a
// tunable threshold, band-energy feature frames, and DTW template
// matching with a tunable warp band.
//
// The two target variables (Table 1 lists 2 for Sphinx) are the VAD
// threshold — whose ideal value tracks the utterance's noise floor,
// recoverable from the frame-energy histogram — and the DTW warp band,
// whose ideal value tracks the speaking-rate variation.
package sphinx

import (
	"math"

	"github.com/autonomizer/autonomizer/internal/stats"
)

// Vocabulary and synthesis constants.
const (
	// VocabSize is the number of distinct keywords.
	VocabSize = 6
	// NumBands is the number of frequency bands in the feature frames.
	NumBands = 4
	// FrameLen is the analysis frame length in samples.
	FrameLen = 64
	// phonesPerWord is the number of band-dominant segments per word.
	phonesPerWord = 3
	// baseSegLen is the nominal samples per phone segment.
	baseSegLen = 4 * FrameLen
)

// bandFreqs are the normalized angular frequencies of the four bands.
var bandFreqs = [NumBands]float64{0.15, 0.35, 0.6, 0.9}

// wordPhones defines each keyword as a sequence of dominant bands.
var wordPhones = [VocabSize][phonesPerWord]int{
	{0, 1, 2},
	{2, 1, 0},
	{3, 3, 1},
	{0, 2, 0},
	{1, 3, 2},
	{2, 0, 3},
}

// Utterance is one synthetic audio workload with ground truth.
type Utterance struct {
	// Samples is the raw waveform.
	Samples []float64
	// Words is the spoken keyword sequence (ground truth).
	Words []int
	// NoiseFloor is the additive noise sigma used.
	NoiseFloor float64
	// Rate is the speaking-rate multiplier used (1 = nominal).
	Rate float64
}

// GenConfig bounds the utterance generator.
type GenConfig struct {
	// MinWords/MaxWords bound the utterance length (defaults 2-5).
	MinWords, MaxWords int
	// MaxNoise bounds the additive noise sigma (default 0.35).
	MaxNoise float64
	// MaxRateJitter bounds per-phone speaking-rate variation (default 0.5,
	// i.e. segments stretch between 0.5× and 1.5× nominal).
	MaxRateJitter float64
}

func (c *GenConfig) fillDefaults() {
	if c.MinWords == 0 {
		c.MinWords = 2
	}
	if c.MaxWords == 0 {
		c.MaxWords = 5
	}
	if c.MaxNoise == 0 {
		c.MaxNoise = 0.35
	}
	if c.MaxRateJitter == 0 {
		c.MaxRateJitter = 0.5
	}
}

// Generate synthesizes one utterance: leading silence, then each word's
// phone segments as band sinusoids with rate jitter, separated by
// silences, all over a noise floor.
func Generate(rng *stats.RNG, cfg GenConfig) *Utterance {
	cfg.fillDefaults()
	nWords := cfg.MinWords + rng.Intn(cfg.MaxWords-cfg.MinWords+1)
	noise := rng.Range(0.02, cfg.MaxNoise)
	rate := rng.Range(1-cfg.MaxRateJitter, 1+cfg.MaxRateJitter)
	amp := rng.Range(0.7, 1.3)

	var samples []float64
	silence := func(n int) {
		for i := 0; i < n; i++ {
			samples = append(samples, 0)
		}
	}
	words := make([]int, nWords)
	silence(3 * FrameLen)
	phase := 0.0
	for w := 0; w < nWords; w++ {
		word := rng.Intn(VocabSize)
		words[w] = word
		for _, band := range wordPhones[word] {
			segLen := int(float64(baseSegLen) * rate * rng.Range(0.8, 1.2))
			freq := bandFreqs[band]
			for i := 0; i < segLen; i++ {
				phase += freq
				samples = append(samples, amp*math.Sin(phase))
			}
		}
		silence(3 * FrameLen)
	}
	// Additive noise over everything.
	for i := range samples {
		samples[i] += float64(rng.NormFloat64() * noise)
	}
	return &Utterance{Samples: samples, Words: words, NoiseFloor: noise, Rate: rate}
}

// GenerateCorpus produces n utterances from a seed.
func GenerateCorpus(seed uint64, n int, cfg GenConfig) []*Utterance {
	rng := stats.NewRNG(seed)
	out := make([]*Utterance, n)
	for i := range out {
		out[i] = Generate(rng.Split(), cfg)
	}
	return out
}
