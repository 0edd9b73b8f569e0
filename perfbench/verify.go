package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// defaultSeed is the workload seed whose estimate results are pinned by
// digest in digests.json.
const defaultSeed = 1

// digestBlock is the number of consecutive ops one pinned digest
// covers: SHA-256 over their result bodies, in op order.
const digestBlock = 64

// pinnedOps is the number of leading ops per estimate workload whose
// digests digests.json holds.
const pinnedOps = 4096

//go:embed digests.json
var digestsJSON []byte

// pinnedDigests maps a workload name to the block digests of its ops at
// the default seed.
func pinnedDigests() (map[string][]string, error) {
	var d map[string][]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func blockDigest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPinned checks the leading ops against the pinned block digests
// and returns the index of the first op no pinned block covers. The
// digests are the determinism contract's memory across commits: a
// reference recomputed by the code under test would agree with a result
// the code changed, so a block that mismatches marks every op in it.
func checkPinned(ops []opRecord, bodies [][]byte, pinned []string) (rest int) {
	for rest+digestBlock <= len(ops) && rest/digestBlock < len(pinned) {
		block := ops[rest : rest+digestBlock]
		if blockDigest(bodies[rest:rest+digestBlock]) != pinned[rest/digestBlock] {
			for i := range block {
				block[i].mismatch = true
			}
		}
		rest += digestBlock
	}
	return rest
}

// checkAgainstReference recomputes ops[from:] untimed with a one-worker
// Local, two ops at a time, and marks the ops whose bytes differ.
func checkAgainstReference(ctx context.Context, w *workload, seed uint64, ops []opRecord, bodies [][]byte, from int) error {
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	next := make(chan int)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if !ops[i].ok() {
					continue
				}
				ref, err := referenceLocal.Do(ctx, w.request(seed, i))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("reference of op %d: %w", i, err)
					}
					mu.Unlock()
					continue
				}
				// Each goroutine marks only the ops it took from next.
				ops[i].mismatch = !bytes.Equal(ref.Body, bodies[i])
			}
		}()
	}
	for i := from; i < len(ops); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// pin computes the reference results of the first pinnedOps ops of each
// estimate workload at the default seed and writes their block digests
// to path.
func pin(ctx context.Context, path string) error {
	out := make(map[string][]string)
	for _, w := range workloads {
		if !w.pinned {
			continue
		}
		bodies := make([][]byte, pinnedOps)
		for i := range bodies {
			res, err := referenceLocal.Do(ctx, w.request(defaultSeed, i))
			if err != nil {
				return fmt.Errorf("%s op %d: %w", w.name, i, err)
			}
			bodies[i] = res.Body
		}
		for b := 0; b+digestBlock <= pinnedOps; b += digestBlock {
			out[w.name] = append(out[w.name], blockDigest(bodies[b:b+digestBlock]))
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
