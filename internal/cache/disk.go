package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Disk entry file layout: a fixed header followed by the payload.
//
//	offset 0   4 bytes  magic "FRS1"
//	offset 4   8 bytes  big-endian payload length
//	offset 12  32 bytes SHA-256 of the payload
//	offset 44  payload  the canonical result bytes
//
// The header is what makes recovery decidable: a crash mid-write never
// produces an addressable entry (writes go to a temp file and rename
// into place), and any corruption after the fact — truncation, bit
// rot, a stray file — fails the length or checksum check and degrades
// to a miss instead of wrong bytes under a content address.
const (
	diskMagic     = "FRS1"
	diskHeaderLen = 4 + 8 + sha256.Size
)

// quarantineSuffix is appended to a corrupt entry's file name. The
// renamed file is no longer a valid key, so it drops out of
// addressing and recovery scans, but its bytes stay on disk for
// inspection.
const quarantineSuffix = ".quarantine"

// Disk is the persistent result tier: one content-addressed file per
// result under a directory, safe for concurrent use within one
// process. Writes are atomic (temp file + fsync + rename), reads are
// verified against the stored length and payload checksum, and a
// directory is recovered on open by indexing every well-formed entry
// name — so a daemon restarted with the same directory serves its
// previous results as cache hits.
type Disk struct {
	dir      string
	maxBytes int64 // payload-byte budget; 0 = unbounded

	mu          sync.Mutex
	entries     map[string]diskEntry // resident entries by key
	bytes       int64
	quarantined uint64
	gcEvicted   uint64
	putErrs     uint64

	hits   atomic.Uint64
	misses atomic.Uint64
}

// diskEntry is one indexed result: its payload size and its age rank
// for garbage collection — the file's mtime at recovery, the write
// time for entries stored by this process. Oldest order goes first
// when the tier is over budget.
type diskEntry struct {
	size  int64
	order int64 // UnixNano
}

// DiskOption configures a Disk tier.
type DiskOption func(*Disk)

// WithDiskMaxBytes bounds the tier's resident payload bytes (<= 0
// keeps the default: unbounded). Over budget the oldest entries — by
// file mtime at recovery, by write time afterwards — are removed, at
// open and after every Put, and counted as evictions in Tiers. The
// bound is capacity, not correctness: an evicted result just
// recomputes on its next request.
func WithDiskMaxBytes(n int64) DiskOption {
	return func(d *Disk) { d.maxBytes = n }
}

// NewDisk opens (creating if needed) a disk tier rooted at dir and
// recovers its index: files named by a valid key are indexed as
// entries (content verification happens lazily, at Get), temp files
// left by an interrupted Put are removed, entries too short to hold
// even a header are quarantined immediately, and anything else in the
// directory is ignored. With WithDiskMaxBytes, recovery ends by
// garbage-collecting the oldest entries until the index fits the
// budget.
func NewDisk(dir string, opts ...DiskOption) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	d := &Disk{dir: dir, entries: make(map[string]diskEntry)}
	for _, opt := range opts {
		opt(d)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		name := e.Name()
		if len(name) > 4 && name[:4] == "tmp-" {
			os.Remove(filepath.Join(dir, name)) // debris from a Put cut off mid-write
			continue
		}
		if !ValidKey(name) {
			continue // not an entry: quarantined files and foreign names stay untouched
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if info.Size() < diskHeaderLen {
			d.quarantineLocked(name) // truncated below the header: unreadable for certain
			continue
		}
		d.entries[name] = diskEntry{size: info.Size() - diskHeaderLen, order: info.ModTime().UnixNano()}
		d.bytes += info.Size() - diskHeaderLen
	}
	d.gcLocked() // a shrunk budget takes effect at open, before any traffic
	return d, nil
}

// Dir returns the tier's root directory.
func (d *Disk) Dir() string { return d.dir }

// Get returns the result stored under key, or ok=false on a miss. An
// entry that fails verification — truncated, wrong length, checksum
// mismatch — is quarantined and reported as a miss: under a content
// address, no bytes beat wrong bytes.
func (d *Disk) Get(key string) (val []byte, ok bool) {
	if !ValidKey(key) {
		d.misses.Add(1)
		return nil, false
	}
	d.mu.Lock()
	_, ok = d.entries[key]
	d.mu.Unlock()
	if !ok {
		d.misses.Add(1)
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(d.dir, key))
	if err != nil {
		// The file vanished underneath the index (operator cleanup):
		// drop the entry and miss.
		d.mu.Lock()
		d.dropLocked(key)
		d.mu.Unlock()
		d.misses.Add(1)
		return nil, false
	}
	payload, ok := parseDiskEntry(data)
	if !ok {
		d.mu.Lock()
		d.quarantineLocked(key)
		d.mu.Unlock()
		d.misses.Add(1)
		return nil, false
	}
	d.hits.Add(1)
	return payload, true
}

// parseDiskEntry validates one entry file's bytes and returns its
// payload.
func parseDiskEntry(data []byte) ([]byte, bool) {
	if len(data) < diskHeaderLen || string(data[:4]) != diskMagic {
		return nil, false
	}
	if binary.BigEndian.Uint64(data[4:12]) != uint64(len(data)-diskHeaderLen) {
		return nil, false
	}
	payload := data[diskHeaderLen:]
	if sum := sha256.Sum256(payload); string(sum[:]) != string(data[12:12+sha256.Size]) {
		return nil, false
	}
	return payload, true
}

// Put stores val under key: header + payload written to a temp file,
// synced, and renamed into place, so a crash at any point leaves
// either no entry or a complete one. The first stored value wins;
// write failures are counted and swallowed — persistence is capacity,
// not correctness, so a full disk degrades the tier to a pass-through
// rather than failing jobs.
func (d *Disk) Put(key string, val []byte) {
	if !ValidKey(key) {
		return
	}
	d.mu.Lock()
	_, exists := d.entries[key]
	d.mu.Unlock()
	if exists {
		return
	}
	buf := make([]byte, diskHeaderLen+len(val))
	copy(buf, diskMagic)
	binary.BigEndian.PutUint64(buf[4:12], uint64(len(val)))
	sum := sha256.Sum256(val)
	copy(buf[12:], sum[:])
	copy(buf[diskHeaderLen:], val)

	f, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		d.countPutErr()
		return
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	} else {
		f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(d.dir, key))
	}
	if err != nil {
		os.Remove(tmp)
		d.countPutErr()
		return
	}
	d.mu.Lock()
	if _, dup := d.entries[key]; !dup {
		d.entries[key] = diskEntry{size: int64(len(val)), order: time.Now().UnixNano()}
		d.bytes += int64(len(val))
	}
	d.gcLocked()
	d.mu.Unlock()
}

// Has reports whether key is indexed, without counting a hit or miss.
func (d *Disk) Has(key string) bool {
	if !ValidKey(key) {
		return false
	}
	d.mu.Lock()
	_, ok := d.entries[key]
	d.mu.Unlock()
	return ok
}

// Len returns the number of indexed results.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Stats returns the cumulative hit and miss counts of Get.
func (d *Disk) Stats() (hits, misses uint64) {
	return d.hits.Load(), d.misses.Load()
}

// Tiers returns the tier's statistics; Evictions counts quarantined
// entries plus entries garbage-collected by the WithDiskMaxBytes
// budget.
func (d *Disk) Tiers() []TierStats {
	d.mu.Lock()
	entries, bytes, evicted := len(d.entries), d.bytes, d.quarantined+d.gcEvicted
	d.mu.Unlock()
	return []TierStats{{
		Tier:      "disk",
		Entries:   entries,
		Bytes:     bytes,
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Evictions: evicted,
	}}
}

// gcLocked removes oldest-first entries until the resident payload
// bytes fit the budget; d.mu must be held (or the Disk not yet
// shared). The scan is linear per eviction — the tier holds at most a
// few thousand entries and GC runs only when a Put tips it over
// budget, so an ordered index would be bookkeeping without a win.
func (d *Disk) gcLocked() {
	if d.maxBytes <= 0 {
		return
	}
	for d.bytes > d.maxBytes && len(d.entries) > 0 {
		var (
			oldest      string
			oldestOrder int64
		)
		for key, e := range d.entries {
			if oldest == "" || e.order < oldestOrder {
				oldest, oldestOrder = key, e.order
			}
		}
		os.Remove(filepath.Join(d.dir, oldest))
		d.dropLocked(oldest)
		d.gcEvicted++
	}
}

// quarantineLocked renames a corrupt entry out of the key namespace
// and drops it from the index; d.mu must be held.
func (d *Disk) quarantineLocked(key string) {
	path := filepath.Join(d.dir, key)
	if err := os.Rename(path, path+quarantineSuffix); err != nil {
		os.Remove(path) // rename refused (exotic fs): removal still un-addresses it
	}
	d.dropLocked(key)
	d.quarantined++
}

// dropLocked removes key from the index; d.mu must be held.
func (d *Disk) dropLocked(key string) {
	if e, ok := d.entries[key]; ok {
		d.bytes -= e.size
		delete(d.entries, key)
	}
}

// countPutErr records a swallowed write failure.
func (d *Disk) countPutErr() {
	d.mu.Lock()
	d.putErrs++
	d.mu.Unlock()
}
