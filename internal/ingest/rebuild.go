package ingest

import (
	"time"

	"microlink/internal/obs"
	"microlink/internal/reach"
)

// rebuildLoop is the rebuild-manager goroutine: it waits for a threshold
// kick from the applier, an interval tick, or shutdown. Every trigger
// funnels into rebuild, which no-ops when the frozen arena is already
// current, so spurious wakeups are cheap.
func (p *Pipeline) rebuildLoop() {
	defer close(p.rebuildDone)
	var tick <-chan time.Time
	if p.cfg.RebuildInterval > 0 {
		t := time.NewTicker(p.cfg.RebuildInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-p.stop:
			return
		case <-p.kick:
			p.rebuild(false)
		case <-tick:
			p.rebuild(false)
		}
	}
}

// ForceRebuild synchronously rebuilds and installs a fresh arena even
// when staleness is zero. It is the deterministic variant the soak and
// determinism tests (and the firehose bench) use to place swaps at known
// stream positions; concurrent rebuilds serialise on rebuildMu.
func (p *Pipeline) ForceRebuild() { p.rebuild(true) }

// rebuild is Deps.Rebuild serialised on rebuildMu, skipped when the
// frozen arena is already current (unless forced), and counted.
func (p *Pipeline) rebuild(force bool) {
	p.rebuildMu.Lock()
	defer p.rebuildMu.Unlock()
	if !force && p.deps.Stream.Staleness() == 0 {
		return
	}
	sp := obs.StartSpan(p.met.rebuildSeconds)
	p.deps.Rebuild()
	sp.Stop()
	p.met.rebuilds.Inc()
	p.met.staleness.Set(float64(p.deps.Stream.Staleness()))
}

// Rebuild re-freezes the 2-hop arena from the live graph and
// copy-on-swaps it into the serving path, then publishes the new
// arena's build gauges to Metrics (nothing when it is nil). The
// expensive build runs outside every serving lock — the snapshot briefly
// holds the streaming substrate's read side, nothing more — and only the
// Install runs under the linker's write lock (via UpdateReachability),
// which flushes the interest cache in the same critical section so
// scorers atomically move from the old arena to the new one.
func (d Deps) Rebuild() {
	th, at := d.Stream.Rebuild()
	d.Linker.UpdateReachability(func() {
		d.Stream.Install(th, at)
	})
	reach.PublishTwoHopBuild(th, d.Metrics)
}
