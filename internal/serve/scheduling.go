package serve

// This file is the scheduling layer's batch former: it blocks for the
// first pending request, drains whatever else is already queued (up to
// MaxBatch), groups the round by plan key in arrival order, and hands
// the batches to the execution layer. The layer's other half — the
// SLO-driven fidelity degradation ladder — lives in ladder.go.

import "aim/internal/planstore"

// former is the admission-queue drain loop.
func (s *Server) former() {
	defer s.wg.Done()
	defer close(s.exec)
	for {
		var first *pending
		select {
		case first = <-s.admit:
		case <-s.stop:
			return
		}
		round := []*pending{first}
	drain:
		for len(round) < s.opt.MaxBatch {
			select {
			case p := <-s.admit:
				round = append(round, p)
			default:
				break drain
			}
		}
		byKey := make(map[planstore.Key]*batch)
		var order []*batch
		for _, p := range round {
			b := byKey[p.key]
			if b == nil {
				b = &batch{key: p.key}
				byKey[p.key] = b
				order = append(order, b)
			}
			b.reqs = append(b.reqs, p)
		}
		for _, b := range order {
			select {
			case s.exec <- b:
			case <-s.stop:
				return
			}
		}
	}
}
