package serve

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"symbios/internal/checkpoint"
	"symbios/internal/integrity"
)

// maxExportBytes bounds a sibling's cache-export payload. The cap is
// generous — a serve-scale cache is a few hundred KiB — but it keeps a
// confused or malicious sibling from feeding the warm-up an unbounded body.
const maxExportBytes = 64 << 20

// OpenCache opens the response cache a server records into, flushing every
// every records: the checkpoint at path is resumed when the file exists
// (resumed reports that) and started empty otherwise. scale names cfg.Scale
// as sosd's -scale flag does. The cache's identity is (sosd or sosd-chaos,
// scale, seed): a chaos server's cache never seeds a clean one, and warm-up
// transfers only between caches of one identity.
func OpenCache(path, scale string, cfg Config, every int) (rec *checkpoint.Recorder, resumed bool, err error) {
	meta := checkpoint.Meta{Exp: "sosd", Scale: scale, Seed: cfg.Scale.Seed}
	if cfg.Chaos != nil {
		meta.Exp = "sosd-chaos"
	}
	if _, err := os.Stat(path); err != nil {
		return checkpoint.NewRecorder(path, meta, every), false, nil
	}
	if rec, err = checkpoint.Resume(path, "", meta, every); err != nil {
		return nil, false, err
	}
	return rec, true, nil
}

// SplitSiblings parses a comma-separated list of sibling base URLs, as
// sosd's -warm-from flag takes it: entries are trimmed and blanks dropped.
func SplitSiblings(list string) []string {
	var siblings []string
	for _, sib := range strings.Split(list, ",") {
		if sib = strings.TrimSpace(sib); sib != "" {
			siblings = append(siblings, sib)
		}
	}
	return siblings
}

// WarmFrom raises the warming gate — /readyz answers 503 "warming cache"
// from this call on, so call it before the listener opens — and transfers
// the response cache from the first responsive sibling in the background.
// The returned channel closes once the gate is down again.
func (s *Server) WarmFrom(siblings []string, timeout time.Duration) <-chan struct{} {
	s.warming.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer s.warming.Store(false)
		s.warmFromSiblings(siblings, timeout)
	}()
	return done
}

// warmFromSiblings fetches /v1/cache/export from each sibling in turn and
// merges the first good one into the local recorder (Meta must match;
// divergent bytes abort). Best-effort by design — every failure falls
// through to the next sibling and finally to a cold start, because a node
// that refuses to boot without a sibling turns one failure into two.
func (s *Server) warmFromSiblings(siblings []string, timeout time.Duration) {
	if s.rec == nil || len(siblings) == 0 {
		return
	}
	client := &http.Client{Timeout: timeout}
	defer client.CloseIdleConnections()
	for _, sib := range siblings {
		snap, size, err := fetchExport(client, sib)
		if err != nil {
			s.logger.Printf("cache warm-up: %s: %v", sib, err)
			continue
		}
		added, merr := s.rec.Merge(snap)
		if merr != nil && added == 0 {
			s.logger.Printf("cache warm-up: merging from %s: %v", sib, merr)
			continue
		}
		if merr != nil {
			// Shards were adopted in memory; only persisting the snapshot
			// failed. The cache is warm — don't re-fetch from another
			// sibling, just flag the flush.
			s.logger.Printf("cache warm-up: snapshot flush after merging from %s: %v", sib, merr)
		}
		s.obs.warmShards.Add(uint64(added))
		s.obs.warmBytes.Add(uint64(size))
		s.logger.Printf("warmed %d cached responses (%d bytes) from %s", added, size, sib)
		return
	}
	s.logger.Printf("cache warm-up: no sibling answered; starting cold")
}

// fetchExport pulls one sibling's cache snapshot, returning the decoded
// snapshot and the transfer size in bytes. The body must verify against the
// sibling's X-Content-Digest stamp and parse under the strict export
// decoder before a single byte reaches the recorder: a warm-up that adopted
// wire-corrupted cache entries would poison every response this node serves
// from them, digest-stamped as if they were honest.
func fetchExport(client *http.Client, base string) (*checkpoint.Snapshot, int, error) {
	resp, err := client.Get(strings.TrimRight(base, "/") + "/v1/cache/export")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("export returned %s", resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxExportBytes))
	if err != nil {
		return nil, 0, fmt.Errorf("reading export: %w", err)
	}
	if cerr := integrity.Check(resp.Header.Get(integrity.Header), data); cerr != nil {
		return nil, 0, fmt.Errorf("export integrity: %w", cerr)
	}
	snap, err := checkpoint.DecodeExport(data)
	if err != nil {
		return nil, 0, fmt.Errorf("decoding export: %w", err)
	}
	return snap, len(data), nil
}
