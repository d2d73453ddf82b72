package qcow

// Cluster completion. A demand miss in sub-cluster mode fills only the
// sub-clusters the guest asked for (fill.go, sub.go); CompleteAll tops the
// rest of every partially-valid cluster up before the cache manager
// publishes the cache, so a published cache holds only whole valid
// clusters. Completion fills go through the same claimRun singleflight as
// demand fills, so a completion and a concurrent guest miss on the same
// cluster still fetch each sub-cluster at most once.

// completeCluster fetches every missing sub-cluster of one allocated cluster
// through the fill singleflight. Returns once the cluster is fully valid (or
// unallocated/untouched, which needs no completion).
func (img *Image) completeCluster(vc int64) error {
	s := img.sub
	for {
		w := s.words[vc].Load()
		if w == 0 || w == s.fullMask(vc) {
			return nil
		}
		if err := img.enterRead(); err != nil {
			return err
		}
		backing := img.Backing()
		if backing == nil {
			img.readers.Done()
			return ErrBackingMissing
		}
		f, leader := img.claimRun(vc, 1)
		if leader {
			img.subLeadFill(f, vc, s.fullMask(vc), backing, &img.stats.SubclusterCompletions)
		} else {
			<-f.done
		}
		err := f.err
		f.release()
		img.readers.Done()
		if err != nil {
			return err
		}
		// A followed fill may have covered only part of the word; the
		// bits grow monotonically, so this loop terminates.
	}
}

// CompleteAll synchronously tops up every partially-valid cluster — the
// flush the cache manager runs before publishing, so published caches are
// always fully completed. No-op without the sub-cluster extension.
func (img *Image) CompleteAll() error {
	s := img.sub
	if s == nil {
		return nil
	}
	if img.ro {
		return ErrReadOnly
	}
	for vc := int64(0); vc < s.clusters; vc++ {
		if err := img.completeCluster(vc); err != nil {
			return err
		}
	}
	return nil
}
