package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"math/rand"

	"adoc/internal/datagen"
)

// contentKinds are the three payload types every workload splits its ops
// between in equal thirds: text, binary, and already-compressed data.
var contentKinds = [...]datagen.Kind{datagen.KindASCII, datagen.KindBinary, datagen.KindPreCompressed}

// mix describes a workload's op sequence: payload sizes log-uniform in
// [minSize, maxSize], content in thirds between contentKinds.
//
// Sizes are drawn by stratified sampling: a block holds, for each content
// kind, one size from each of strata equal slices of the log-size range,
// in shuffled order. The marginal distribution is exactly log-uniform,
// but every whole block carries the same mix, so a run that measures
// whole blocks sees the same mix whatever the seed.
type mix struct {
	minSize, maxSize int
	strata           int  // sizes per kind per block
	blocks           int  // blocks in one cycle of the sequence
	poolSize         int  // bytes generated per content kind
	freshEvery       int  // every freshEvery-th op opens a new connection (0: never)
	sha              bool // precompute each op's SHA-256 for the receiver to check
	warmSize         int  // size of the fixed op that ends set-up
}

func (m mix) blockLen() int { return len(contentKinds) * m.strata }

// opSpec is one generated op: which content, how much, and where in the
// content pool it starts.
type opSpec struct {
	kind  int // index into contentKinds
	size  int
	off   int
	fresh bool              // open a new connection before this op
	sum   [sha256.Size]byte // SHA-256 of the payload, when the mix asks for it
}

// inputs is everything a run sends, generated from the seed before any
// timing starts. The program under test only ever sees payload bytes.
type inputs struct {
	seed  int64
	pools [len(contentKinds)][]byte
	ops   []opSpec
	warm  opSpec // the fixed op that ends set-up, run as op index -1
}

// genInputs builds the content pools and the op sequence for one seed.
func genInputs(seed int64, m mix) *inputs {
	in := &inputs{seed: seed, ops: genOps(seed, m)}
	for k, kind := range contentKinds {
		// A copy of exactly poolSize: a generator may return a slice of a
		// larger buffer, whose size would then vary with the seed.
		in.pools[k] = bytes.Clone(datagen.ByKind(kind, m.poolSize, seed*7919+int64(k)*104729+1))
	}
	if m.sha {
		for i := range in.ops {
			o := &in.ops[i]
			o.sum = sha256.Sum256(in.pools[o.kind][o.off : o.off+o.size])
		}
	}
	in.warm = opSpec{size: m.warmSize, sum: sha256.Sum256(in.pools[0][:m.warmSize])}
	return in
}

// genOps draws the op sequence: m.blocks stratified blocks.
func genOps(seed int64, m mix) []opSpec {
	r := rand.New(rand.NewSource(seed))
	span := math.Log(float64(m.maxSize) / float64(m.minSize))
	ops := make([]opSpec, 0, m.blocks*m.blockLen())
	for b := 0; b < m.blocks; b++ {
		block := make([]opSpec, 0, m.blockLen())
		for k := range contentKinds {
			for s := 0; s < m.strata; s++ {
				u := (float64(s) + r.Float64()) / float64(m.strata)
				size := int(math.Round(float64(m.minSize) * math.Exp(u*span)))
				size = min(max(size, m.minSize), m.maxSize)
				block = append(block, opSpec{kind: k, size: size, off: r.Intn(m.poolSize - size + 1)})
			}
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		ops = append(ops, block...)
	}
	for i := range ops {
		ops[i].fresh = m.freshEvery > 0 && i%m.freshEvery == 0
	}
	return ops
}

// warmOp is the index under which callers run the set-up op.
const warmOp = -1

// op returns the i-th op of the endless sequence (the cycle repeats), or
// the set-up op for a negative i.
func (in *inputs) op(i int) *opSpec {
	if i < 0 {
		return &in.warm
	}
	return &in.ops[i%len(in.ops)]
}

// payload returns the bytes of the i-th op.
func (in *inputs) payload(i int) []byte {
	o := in.op(i)
	return in.pools[o.kind][o.off : o.off+o.size]
}
