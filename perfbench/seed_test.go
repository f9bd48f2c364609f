package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSameSeedSameTrainingInputs(t *testing.T) {
	a, b, c := newTrainer(smallModel, true, 9), newTrainer(smallModel, true, 9), newTrainer(smallModel, true, 10)
	for i := range a.layers {
		if !reflect.DeepEqual(a.layers[i].x.Data, b.layers[i].x.Data) ||
			!reflect.DeepEqual(a.layers[i].dy.Data, b.layers[i].dy.Data) {
			t.Fatalf("layer %d: seed 9 gave different operands twice", i)
		}
		if reflect.DeepEqual(a.layers[i].x.Data, c.layers[i].x.Data) {
			t.Fatalf("layer %d: seeds 9 and 10 gave the same operands", i)
		}
	}
}

func TestSameSeedSameServedTraffic(t *testing.T) {
	traffic := func(seed int64) (*mix, []arrival, []int) {
		m, err := newMix(seed, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := m.openSchedule(3 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := m.closedSequence(100 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return m, sched, seq
	}
	m1, s1, q1 := traffic(4)
	m2, s2, q2 := traffic(4)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(q1, q2) {
		t.Fatal("seed 4 drew two different schedules")
	}
	if len(m1.items) != len(m2.items) {
		t.Fatalf("seed 4 made %d and %d distinct requests", len(m1.items), len(m2.items))
	}
	for i := range m1.items {
		if !bytes.Equal(m1.items[i].body, m2.items[i].body) {
			t.Fatalf("request %s differs between two draws of seed 4", m1.items[i].name)
		}
	}
	m3, s3, _ := traffic(5)
	if reflect.DeepEqual(s1, s3) || bytes.Equal(m1.items[0].body, m3.items[0].body) {
		t.Fatal("seeds 4 and 5 drew the same traffic")
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	sched := poissonSchedule(newRand(1), 200, 50*time.Second, func() int { return 0 })
	if n := len(sched); n < 9500 || n > 10500 {
		t.Fatalf("200/s over 50 s drew %d arrivals", n)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].due < sched[i-1].due {
			t.Fatal("arrivals are not in due order")
		}
	}
}

func TestOpenLoopQueuesBeyondConnectionCap(t *testing.T) {
	// Three requests due at once on one connection, each taking 20 ms: the
	// second and third wait in the generator and show it as lateness, and
	// their latency counts from the due time.
	sched := []arrival{{0, 0}, {0, 1}, {0, 2}}
	const work = 20 * time.Millisecond
	outs := openLoop(sched, 1, 0, func(i int, due time.Time, req int64) outcome {
		o := outcome{late: ms(time.Since(due))}
		time.Sleep(work)
		o.latency = ms(time.Since(due))
		return o
	})
	for k, o := range outs {
		minLate := float64(k) * ms(work)
		if o.late < minLate || o.latency < minLate+ms(work) {
			t.Errorf("request %d: late %.1f ms, latency %.1f ms; want at least %.0f and %.0f",
				k, o.late, o.latency, minLate, minLate+ms(work))
		}
	}
}
