package main

import (
	"encoding/binary"
	"math"
	"testing"

	"winrs"
	"winrs/internal/serve"
)

// smallTrainer is a two-layer model small enough for unit tests.
var smallModel = []layerSpec{
	{"a", "dense3", winrs.Params{N: 1, IH: 10, IW: 10, FH: 3, FW: 3, IC: 3, OC: 4, PH: 1, PW: 1}},
	{"b", "dw", winrs.Params{N: 1, IH: 8, IW: 8, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1, Groups: 4}},
}

func TestCheckerRejectsOneFlippedElement(t *testing.T) {
	for _, half := range []bool{false, true} {
		tr := newTrainer(smallModel, half, 3)
		dws, err := tr.setup(nil)
		if err != nil {
			t.Fatal(err)
		}
		res := newResult()
		tr.checkFirst(dws, 2, res)
		if len(res.mismatches) != 0 {
			t.Fatalf("half=%v: correct gradients rejected: %v", half, res.mismatches)
		}
		tr.checkStep(dws, res)
		if res.failed != 0 {
			t.Fatalf("half=%v: an identical step was rejected", half)
		}

		// The smallest possible change: the last mantissa bit of one element.
		d := dws[1].Data
		d[5] = math.Float32frombits(math.Float32bits(d[5]) ^ 1)
		tr.checkStep(dws, res)
		if res.failed != 1 || len(res.mismatches) != 1 {
			t.Fatalf("half=%v: a ∇W with one flipped bit passed the bit-identity check", half)
		}

		// A real error, far outside the eq.(7) bound, fails the oracle check.
		d[5] += 1000
		res = newResult()
		tr.checkFirst(dws, 2, res)
		if len(res.mismatches) != 1 {
			t.Fatalf("half=%v: a ∇W off by 1000 in one element passed the oracle check", half)
		}
	}
}

func TestServedAnswerCheck(t *testing.T) {
	m := &mix{}
	p := winrs.Params{N: 1, IH: 9, IW: 9, FH: 3, FW: 3, IC: 3, OC: 5, PH: 1, PW: 1}
	for _, half := range []bool{false, true} {
		its, err := m.makeItems("t", p, half, []bool{false, true}, newRand(5))
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range its {
			body := serve.AppendF32(nil, it.want)
			if msg := it.check(body); msg != "" {
				t.Fatalf("%s: the library's own answer was rejected: %s", it.name, msg)
			}
			i := 4 * 7
			v := binary.LittleEndian.Uint32(body[i:])
			if it.auto {
				// Auto answers may differ within the bound, not beyond it.
				binary.LittleEndian.PutUint32(body[i:], math.Float32bits(math.Float32frombits(v)+float32(3*it.bound)))
			} else {
				binary.LittleEndian.PutUint32(body[i:], v^1)
			}
			if it.check(body) == "" {
				t.Fatalf("%s: an answer with one wrong element passed", it.name)
			}
			if it.check(body[:len(body)-4]) == "" {
				t.Fatalf("%s: a short answer passed", it.name)
			}
		}
	}
}
