package server

// This file is the retention policy of the content-addressed run
// store. The store doubles as the result cache: a finished run IS its
// cache entry (the fingerprint-derived id is the key, the stored
// bytes the value), so eviction and run bookkeeping share one map.
// The digest index (Server.digests) holds one entry per stored run and
// leaves with it, so it needs no policy of its own.

// evictLocked drops the oldest terminal runs until the store fits
// CacheEntries. Queued and running runs are never evicted — a client
// holding their URL is still waiting on them — so a store full of
// in-flight runs is left alone until some of them finish. Call with
// s.mu held.
func (s *Server) evictLocked() {
	for len(s.runs) > s.cfg.CacheEntries {
		victim := ""
		for _, id := range s.order {
			if r, ok := s.runs[id]; ok && r.terminal() {
				victim = id
				break
			}
		}
		if victim == "" {
			return
		}
		s.deleteLocked(victim)
		s.evicted.Inc()
	}
}

// deleteLocked removes one run from the store, the digest index and
// the insertion-order index. Call with s.mu held.
func (s *Server) deleteLocked(id string) {
	if r, ok := s.runs[id]; ok {
		delete(s.digests, r.digest)
	}
	delete(s.runs, id)
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}
