package experiments

import (
	"context"
	"fmt"

	"symbios/internal/checkpoint"
	"symbios/internal/obs"
	"symbios/internal/parallel"
)

// Shard-level checkpointing. Every top-level experiment is a fan-out of
// independent work items ("shards"), each a pure function of the Scale and
// its index-derived seeds. shardedMap layers three robustness concerns over
// parallel.Map without touching the science:
//
//   - the context bounds the fan-out (deadline or cancellation aborts
//     between shards and, through RunScheduleCtx, inside them);
//   - a checkpoint.Recorder carried in the context memoizes completed
//     shards, so a resumed run replays recorded results and recomputes only
//     what the crash interrupted — byte-identical to an uninterrupted run
//     because each shard is deterministic and JSON round-trips exactly;
//   - a checkpoint.Watchdog carried in the context brackets each shard
//     computation, so a stuck simulation is detected and named.
//
// Both carriers are optional: with a plain context shardedMap degrades to
// parallel.Map with context support.

// shardKey names one work item of a top-level fan-out. Keys are stable
// across runs — they depend only on the experiment name and item index —
// which is what lets a resumed process find the crashed run's results.
func shardKey(exp string, i int) string { return fmt.Sprintf("%s/%05d", exp, i) }

// shardedMap is parallel.Map with checkpoint memoization and stall
// detection. fn must be a deterministic function of (i, item) whose result
// survives a JSON round-trip unchanged (struct-of-scalars rows qualify;
// anything holding pointers or unexported state does not — plumb only the
// context for those).
func shardedMap[T, R any](ctx context.Context, exp string, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	rec := checkpoint.RecorderFrom(ctx)
	wd := checkpoint.WatchdogFrom(ctx)
	tr := obs.TracerFrom(ctx)
	out, err := parallel.Map(ctx, items, parallel.Options{}, func(i int, item T) (R, error) {
		key := shardKey(exp, i)
		var r R
		hit, lerr := rec.Lookup(key, &r)
		if lerr != nil {
			return r, fmt.Errorf("experiments: shard %s: %w", key, lerr)
		}
		if hit {
			return r, nil
		}
		end := wd.Begin(key)
		// Span computed shards only: a checkpoint replay above is not work,
		// and tracing it would skew the shard-duration histogram.
		endSpan := tr.Span("shard", key)
		r, ferr := fn(ctx, i, item)
		endSpan()
		end()
		if ferr != nil {
			return r, ferr
		}
		if rerr := rec.Record(key, r); rerr != nil {
			return r, fmt.Errorf("experiments: shard %s: %w", key, rerr)
		}
		return r, nil
	})
	if err != nil {
		return out, err
	}
	// A completed fan-out is worth persisting even mid-experiment: "all"
	// chains many fan-outs and a crash in the next one must not lose this
	// one's shards.
	if ferr := rec.Flush(); ferr != nil {
		return out, ferr
	}
	return out, nil
}
