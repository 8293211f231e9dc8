package delta

import (
	"context"
	"time"
)

// Follow tails a mutation log until ctx is done: newly appended
// complete ops are accumulated until the log goes quiet for debounce
// (the republish cadence), then applied as one batch; after every batch that
// changed the artifacts, publish runs (republish the files, reload the
// serving snapshot, ...) and its duration is recorded. Publish errors
// are logged and the loop continues — the next batch will publish the
// newer state anyway. Returns nil on context cancellation; a tail read
// error (e.g. a truncated log) is permanent and returned.
func (m *Maintainer) Follow(ctx context.Context, tail *Tail, debounce time.Duration, publish func(BatchStats) error) error {
	// The file is polled four times per quiet period, within [25ms, 250ms].
	poll := min(max(debounce/4, 25*time.Millisecond), 250*time.Millisecond)
	timer := time.NewTimer(poll)
	defer timer.Stop()
	var batch []Op
	var quietSince time.Time

	for {
		ops, err := tail.Poll()
		if err != nil {
			return err
		}
		if len(ops) > 0 {
			batch = append(batch, ops...)
			quietSince = time.Now()
		}
		if len(batch) > 0 && time.Since(quietSince) >= debounce {
			bs, err := m.Apply(batch)
			if err != nil {
				return err
			}
			batch = nil
			if bs.Changed && publish != nil {
				pubStart := time.Now()
				if err := publish(bs); err != nil {
					m.logln("delta: publish failed (will retry on next batch): %v", err)
				} else {
					m.NotePublish(time.Since(pubStart))
				}
			}
		}
		timer.Reset(poll)
		select {
		case <-ctx.Done():
			return nil
		case <-timer.C:
		}
	}
}
