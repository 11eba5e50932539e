package main

import (
	"fmt"

	"sian/internal/model"
)

// rmw is one committed read-modify-write: the value read from key and
// the value written over it. Written values are globally unique (see
// valueGen), so a predecessor value names exactly one version.
type rmw struct {
	key  int32
	pred model.Value
	val  model.Value
}

// valueGen mints globally unique values: the client index in the high
// bits, a per-client counter below. Initial values are small positive
// integers (initValue) and never collide with minted ones.
type valueGen struct{ next model.Value }

func newValueGen(client int) valueGen { return valueGen{next: model.Value(client+1) << 40} }

func (g *valueGen) mint() model.Value {
	g.next++
	return g.next
}

// initValue is key k's value before any workload write.
func initValue(k int) model.Value { return model.Value(k + 1) }

// checkChains is the per-run correctness check: no lost update
// (Fig. 2(b) of the paper). Under SI, first-committer-wins lets at most
// one committed transaction overwrite any given version, so every
// predecessor value may be consumed at most once; following the
// consumed-by links from each key's initial value must visit every
// committed write of that key and end at the value a final snapshot
// read returns.
func checkChains(nkeys int, committed [][]rmw, final []model.Value) error {
	type succ struct {
		key int32
		val model.Value
	}
	total := 0
	for _, rs := range committed {
		total += len(rs)
	}
	next := make(map[model.Value]succ, total)
	for _, rs := range committed {
		for _, r := range rs {
			if prev, dup := next[r.pred]; dup {
				return fmt.Errorf("lost update on key %d: version %d overwritten by both %d and %d", r.key, r.pred, prev.val, r.val)
			}
			next[r.pred] = succ{r.key, r.val}
		}
	}
	walked := 0
	for k := 0; k < nkeys; k++ {
		v := initValue(k)
		for {
			s, ok := next[v]
			if !ok {
				break
			}
			if int(s.key) != k {
				return fmt.Errorf("key %d: version %d was overwritten through key %d", k, v, s.key)
			}
			v = s.val
			walked++
		}
		if v != final[k] {
			return fmt.Errorf("key %d: write chain ends at %d but a final snapshot reads %d", k, v, final[k])
		}
	}
	if walked != total {
		return fmt.Errorf("%d of %d committed writes are unreachable from any initial value", total-walked, total)
	}
	return nil
}
