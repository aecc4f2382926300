// Package cachestore is the persistence layer under laocd's caches: an
// append-only log of checksummed records in numbered segment files,
// written behind the request path and scanned once at startup to warm
// the in-memory caches.
//
// The design leans on two properties of the service above it:
//
//   - Records are content-addressed and immutable. A record is only
//     ever superseded by an identical one (same key ⇒ same bytes, the
//     pipeline is deterministic), so "last record wins" on scan needs
//     no sequence numbers, and a crash between duplicate writes is
//     harmless.
//   - The store is a cache, not a database. Losing a record costs a
//     recompilation; serving a corrupt one costs correctness. So every
//     read path is paranoid (per-record FNV-64a checksums, framing
//     validation, hostile-length guards) and every failure mode
//     degrades to "skip it, count it": torn tails are truncated,
//     corrupt records are skipped and resynced past, and nothing that
//     fails validation is ever yielded to a caller.
//
// Writes go through a single background goroutine (write-behind): Put
// never blocks the request path on the disk — a full queue drops the
// record and counts the drop instead. The same goroutine runs
// compaction when the log exceeds its size cap: live records (an
// LRU-liveness callback decides) are rewritten into a fresh segment,
// the rename is atomic, and a crash at any point leaves either the old
// segments or a complete new one — never a half state the scanner
// would trust. Leftover .tmp segments from a killed compaction are
// deleted at Open.
package cachestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind tags what a record payload is; the warm scanner dispatches on
// it.
type Kind byte

const (
	// KindResult is a compiled translation: payload = rendered LAI text,
	// with the result counters riding in the record header.
	KindResult Kind = 1
	// KindDecode is a decoded function (payload = its b1 wire document),
	// written by laocd versions that kept a decode cache. The server no
	// longer writes or reads it; it stays a known kind so that such
	// records in an older store are skipped, not counted as corrupt.
	KindDecode Kind = 2
)

// Record is one persisted cache entry.
type Record struct {
	Kind    Kind
	Key     uint64
	Payload []byte
	// Name/Moves/Instrs/FellBack/Degraded are the result counters a
	// KindResult response carries; zero for KindDecode.
	Name     string
	Moves    int
	Instrs   int
	FellBack bool
	Degraded bool
}

// FsyncPolicy says when the writer calls File.Sync.
type FsyncPolicy int

const (
	// FsyncNever leaves durability to the OS (default; a crash loses at
	// most the page cache, which for a cache is fine).
	FsyncNever FsyncPolicy = iota
	// FsyncAlways syncs after every appended record.
	FsyncAlways
	// FsyncInterval syncs at most once per Options.FsyncEvery.
	FsyncInterval
)

// ParseFsyncPolicy maps the -cache-fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "never", "":
		return FsyncNever, nil
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	}
	return FsyncNever, fmt.Errorf("cachestore: unknown fsync policy %q (want never, interval or always)", s)
}

// Options configures Open.
type Options struct {
	// MaxBytes caps the on-disk size; exceeding it triggers a
	// compaction. 0 means 64 MiB; negative disables compaction.
	MaxBytes int64
	// Fsync is the durability policy; FsyncEvery is the FsyncInterval
	// period (default 100ms).
	Fsync      FsyncPolicy
	FsyncEvery time.Duration
	// Live reports whether a record is still worth keeping at
	// compaction time — the server wires it to the in-memory LRUs so
	// the disk follows their liveness. nil keeps everything.
	Live func(Kind, uint64) bool
	// QueueDepth bounds the write-behind queue (default 1024); a full
	// queue drops the append and counts it.
	QueueDepth int
}

// Stats is a snapshot of the store's counters; all are monotonic
// except SizeBytes/Segments.
type Stats struct {
	Appends        int64 // records written by the write-behind goroutine
	AppendBytes    int64 // encoded bytes appended
	Dropped        int64 // appends dropped (full queue, closed store, write error)
	Fsyncs         int64
	ScanRecords    int64 // valid records yielded by Scan
	CorruptDropped int64 // records skipped for checksum/framing violations
	TruncatedBytes int64 // torn-tail bytes truncated during recovery
	Compactions    int64
	CompactDropped int64 // dead/stale records dropped by compaction
	SizeBytes      int64 // current on-disk size
	Segments       int64 // current segment count
}

// Store is an open cache store. Open → Scan (warm start) → Put... →
// Close. Put/Flush/Stats are safe for concurrent use; Scan reads the
// segment files directly and must not race compaction — call it before
// the first Put.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex // guards the file state below
	active   *os.File
	activeN  int   // active segment number
	size     int64 // total on-disk bytes across segments
	lastSync time.Time

	queue  chan wreq
	quit   chan struct{}
	done   chan struct{}
	closed atomic.Bool

	appends        atomic.Int64
	appendBytes    atomic.Int64
	dropped        atomic.Int64
	fsyncs         atomic.Int64
	scanRecords    atomic.Int64
	corruptDropped atomic.Int64
	truncatedBytes atomic.Int64
	compactions    atomic.Int64
	compactDropped atomic.Int64
}

// wreq is one write-behind command: a record to append, or a flush
// barrier when rec is nil.
type wreq struct {
	rec   *Record
	flush chan struct{}
}

// Record frame: u32 magic · u32 bodyLen · body · u64 FNV-64a(body).
// Body: u8 kind · u8 flags · u16 0 · u32 moves · u32 instrs · u64 key
// · u32 nameLen · name · u32 payloadLen · payload.
const (
	recMagic     = uint32(0x4C414F43) // "LAOC" little-endian
	recBodyFixed = 28                 // body bytes besides name/payload
	recMinFrame  = 4 + 4 + recBodyFixed + 8
	segPattern   = "seg-%08d.laoc"
)

// Open opens (creating if needed) the store in dir and runs recovery:
// leftover compaction temporaries are removed and a torn tail on the
// newest segment is truncated away. New appends go to a fresh segment,
// so recovery never rewrites bytes a previous process considered
// durable (beyond the torn-tail truncation itself).
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 64 << 20
	}
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = 100 * time.Millisecond
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		queue: make(chan wreq, opts.QueueDepth),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	segs, err := s.recover()
	if err != nil {
		return nil, err
	}
	next := 0
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	f, err := os.OpenFile(s.segPath(next), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	s.active, s.activeN = f, next
	go s.writer()
	return s, nil
}

func (s *Store) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf(segPattern, n))
}

// segments lists the existing segment numbers in ascending order.
func (s *Store) segments() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	var out []int
	for _, e := range ents {
		var n int
		// Sscanf tolerates trailing input, so require an exact
		// re-rendering match — "seg-0000.laoc.tmp" must not count.
		if _, err := fmt.Sscanf(e.Name(), segPattern, &n); err == nil && e.Name() == fmt.Sprintf(segPattern, n) {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// recover deletes compaction temporaries, truncates a torn tail off
// the newest segment, and computes the current on-disk size.
func (s *Store) recover() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	segs, err := s.segments()
	if err != nil {
		return nil, err
	}
	for i, n := range segs {
		path := s.segPath(n)
		fi, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("cachestore: %w", err)
		}
		size := fi.Size()
		if i == len(segs)-1 {
			// The newest segment is the only one a crash can have left
			// mid-append: find the last well-framed record boundary and
			// drop everything after it.
			valid, err := validPrefix(path)
			if err != nil {
				return nil, err
			}
			if valid < size {
				if err := os.Truncate(path, valid); err != nil {
					return nil, fmt.Errorf("cachestore: truncate torn tail: %w", err)
				}
				s.truncatedBytes.Add(size - valid)
				size = valid
			}
		}
		s.size += size
	}
	return segs, nil
}

// validPrefix returns the offset just past the last well-framed record
// in the segment — the truncation point for torn-tail recovery. Damage
// in the middle is resynced past, not truncated (a bit flip before
// intact records must not discard them; Scan skips and counts it).
// Checksums are not verified here — a flipped payload bit inside a
// complete record is Scan's business.
func validPrefix(path string) (int64, error) {
	r, err := openFrames(path)
	if err != nil {
		return 0, err
	}
	defer r.f.Close()
	for {
		if _, done := r.next(); done {
			break
		}
	}
	return r.end, r.err
}

// frameReader walks the record frames of one segment file in order,
// holding only the current frame plus a read-ahead window in memory.
// It is the one frame parser behind torn-tail recovery, Scan and
// compaction. A span that does not start a well-framed record is
// resynced past: the reader steps byte by byte to the next offset
// where one starts, or to the end of the segment.
type frameReader struct {
	f      *os.File
	size   int64  // segment size at open; nothing past it is read
	pos    int64  // segment offset of the cursor
	win    []byte // window backing store
	lo, hi int    // win[lo:hi] holds segment bytes [pos, pos+hi-lo)
	end    int64  // offset just past the last well-framed record
	err    error  // first read error; the walk stops at it
}

// frameReadAhead is the window refill size: large enough that a scan
// costs few reads. The window grows past it only to hold a larger
// frame.
const frameReadAhead = 256 << 10

func openFrames(path string) (*frameReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	return &frameReader{f: f, size: fi.Size()}, nil
}

// next returns the next span of the segment: a well-framed record
// (checksum not yet verified; the bytes are valid until the following
// call), or nil for a damaged span it resynced past. done reports the
// end of the segment, or a read error (in r.err).
func (r *frameReader) next() (frame []byte, done bool) {
	if r.pos >= r.size || r.err != nil {
		return nil, true
	}
	if n := r.frameHere(); n > 0 {
		frame = r.win[r.lo : r.lo+n]
		r.advance(int64(n))
		r.end = r.pos
		return frame, false
	}
	for r.err == nil {
		r.advance(1)
		if r.size-r.pos < recMinFrame {
			r.advance(r.size - r.pos) // too short to hold a frame
			break
		}
		if r.frameHere() > 0 {
			break
		}
	}
	return nil, r.err != nil
}

// frameHere returns the length of the well-framed record at the
// cursor, or 0 if none starts there.
func (r *frameReader) frameHere() int {
	if !r.fill(recMinFrame) || binary.LittleEndian.Uint32(r.win[r.lo:]) != recMagic {
		return 0
	}
	total := 4 + 4 + int64(binary.LittleEndian.Uint32(r.win[r.lo+4:])) + 8
	if !r.fill(total) {
		return 0
	}
	return int(frameLen(r.win[r.lo : r.lo+int(total)]))
}

// fill makes n bytes from the cursor resident, reporting false when
// the segment ends first or a read fails. It never reads past the
// segment size recorded at open, so a hostile length costs nothing.
func (r *frameReader) fill(n int64) bool {
	if n > r.size-r.pos {
		return false
	}
	if n <= int64(r.hi-r.lo) {
		return true
	}
	r.hi = copy(r.win, r.win[r.lo:r.hi])
	r.lo = 0
	want := int(min(max(n, frameReadAhead), r.size-r.pos))
	if len(r.win) < want {
		w := make([]byte, want)
		copy(w, r.win[:r.hi])
		r.win = w
	}
	k, err := r.f.ReadAt(r.win[r.hi:want], r.pos+int64(r.hi))
	r.hi += k
	if err != nil && r.hi < want {
		r.err = fmt.Errorf("cachestore: %w", err)
		return false
	}
	return true
}

// advance moves the cursor n bytes forward.
func (r *frameReader) advance(n int64) {
	if n < int64(r.hi-r.lo) {
		r.lo += int(n)
	} else {
		r.lo, r.hi = 0, 0
	}
	r.pos += n
}

// frameLen returns the total length of the record frame at the start
// of data, or 0 if data does not begin with a complete well-framed
// record (the body's internal length fields must agree with bodyLen).
func frameLen(data []byte) int64 {
	if len(data) < recMinFrame {
		return 0
	}
	if binary.LittleEndian.Uint32(data) != recMagic {
		return 0
	}
	bodyLen := int64(binary.LittleEndian.Uint32(data[4:]))
	total := 4 + 4 + bodyLen + 8
	if bodyLen < recBodyFixed || total > int64(len(data)) {
		return 0
	}
	body := data[8 : 8+bodyLen]
	nameLen := int64(binary.LittleEndian.Uint32(body[20:]))
	if 24+nameLen+4 > bodyLen {
		return 0
	}
	payloadLen := int64(binary.LittleEndian.Uint32(body[24+nameLen:]))
	if recBodyFixed+nameLen+payloadLen != bodyLen {
		return 0
	}
	return total
}

// encodeRecord appends rec's frame to dst.
func encodeRecord(dst []byte, rec *Record) []byte {
	bodyLen := recBodyFixed + len(rec.Name) + len(rec.Payload)
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, recMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	var flags byte
	if rec.FellBack {
		flags |= 1
	}
	if rec.Degraded {
		flags |= 2
	}
	dst = append(dst, byte(rec.Kind), flags, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Moves))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Instrs))
	dst = binary.LittleEndian.AppendUint64(dst, rec.Key)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Name)))
	dst = append(dst, rec.Name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Payload)))
	dst = append(dst, rec.Payload...)
	h := fnv.New64a()
	h.Write(dst[start+8 : start+8+bodyLen])
	return binary.LittleEndian.AppendUint64(dst, h.Sum64())
}

// verifyFrame reports whether a well-framed record (as returned by
// frameReader.next) checksums and carries a known kind.
func verifyFrame(frame []byte) bool {
	body := frame[8 : len(frame)-8]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(frame[len(frame)-8:]) {
		return false
	}
	kind := Kind(body[0])
	return kind == KindResult || kind == KindDecode
}

// decodeRecord parses a verified frame into a Record that owns its
// bytes.
func decodeRecord(frame []byte) *Record {
	body := frame[8 : len(frame)-8]
	flags := body[1]
	nameLen := int64(binary.LittleEndian.Uint32(body[20:]))
	payloadLen := int64(binary.LittleEndian.Uint32(body[24+nameLen:]))
	return &Record{
		Kind:     Kind(body[0]),
		Key:      binary.LittleEndian.Uint64(body[12:]),
		Payload:  append([]byte(nil), body[28+nameLen:28+nameLen+payloadLen]...),
		Name:     string(body[24 : 24+nameLen]),
		Moves:    int(binary.LittleEndian.Uint32(body[4:])),
		Instrs:   int(binary.LittleEndian.Uint32(body[8:])),
		FellBack: flags&1 != 0,
		Degraded: flags&2 != 0,
	}
}

// Scan replays every valid record in segment order, oldest first, and
// calls fn for each; fn returning false stops the scan. Records that
// fail checksum or framing are skipped, counted, and resynced past by
// searching for the next frame magic. Scan is the warm-start read —
// call it after Open and before the first Put.
func (s *Store) Scan(fn func(*Record) bool) error {
	segs, err := s.segments()
	if err != nil {
		return err
	}
	return s.frames(segs, func(frame []byte) bool {
		s.scanRecords.Add(1)
		return fn(decodeRecord(frame))
	})
}

// frames calls fn with every verified record frame of segs, in order,
// until fn returns false. Damaged spans and frames that fail
// verification are skipped and counted in CorruptDropped. The frame
// bytes are only valid during the call.
func (s *Store) frames(segs []int, fn func(frame []byte) bool) error {
	for _, n := range segs {
		r, err := openFrames(s.segPath(n))
		if err != nil {
			return err
		}
		for {
			frame, done := r.next()
			if done {
				break
			}
			if frame == nil || !verifyFrame(frame) {
				s.corruptDropped.Add(1)
				continue
			}
			if !fn(frame) {
				r.f.Close()
				return nil
			}
		}
		r.f.Close()
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// Put hands rec to the write-behind goroutine. It never blocks on the
// disk: when the queue is full the record is dropped and counted —
// the store is a cache, and backpressure belongs to the compile path,
// not the persistence path.
func (s *Store) Put(rec *Record) {
	if s.closed.Load() {
		s.dropped.Add(1)
		return
	}
	select {
	case s.queue <- wreq{rec: rec}:
	default:
		s.dropped.Add(1)
	}
}

// Flush blocks until every Put accepted so far has hit the file and
// been synced (regardless of policy) — the test and shutdown barrier.
func (s *Store) Flush() {
	ch := make(chan struct{})
	select {
	case s.queue <- wreq{flush: ch}:
	case <-s.done:
		return
	}
	select {
	case <-ch:
	case <-s.done:
	}
}

// Close flushes, stops the writer and closes the active segment. The
// store must not be used afterwards.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.Flush()
	close(s.quit)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != nil {
		s.active.Sync()
		err := s.active.Close()
		s.active = nil
		return err
	}
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	size := s.size
	s.mu.Unlock()
	segs, _ := s.segments()
	return Stats{
		Appends:        s.appends.Load(),
		AppendBytes:    s.appendBytes.Load(),
		Dropped:        s.dropped.Load(),
		Fsyncs:         s.fsyncs.Load(),
		ScanRecords:    s.scanRecords.Load(),
		CorruptDropped: s.corruptDropped.Load(),
		TruncatedBytes: s.truncatedBytes.Load(),
		Compactions:    s.compactions.Load(),
		CompactDropped: s.compactDropped.Load(),
		SizeBytes:      size,
		Segments:       int64(len(segs)),
	}
}

// --- the write-behind goroutine ------------------------------------

func (s *Store) writer() {
	defer close(s.done)
	for {
		select {
		case req := <-s.queue:
			s.handle(req)
		case <-s.quit:
			// Drain whatever was enqueued before quit, then stop.
			for {
				select {
				case req := <-s.queue:
					s.handle(req)
				default:
					return
				}
			}
		}
	}
}

func (s *Store) handle(req wreq) {
	if req.flush != nil {
		s.mu.Lock()
		if s.active != nil {
			s.active.Sync()
			s.fsyncs.Add(1)
		}
		s.mu.Unlock()
		close(req.flush)
		return
	}
	s.append(req.rec)
}

// append encodes and writes one record, applies the fsync policy, and
// triggers compaction past the size cap. Runs only on the writer
// goroutine.
func (s *Store) append(rec *Record) {
	frame := encodeRecord(nil, rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		s.dropped.Add(1)
		return
	}
	if _, err := s.active.Write(frame); err != nil {
		// A failed write may have left a torn tail; the next Open's
		// recovery truncates it. Nothing to do here but count.
		s.dropped.Add(1)
		return
	}
	s.size += int64(len(frame))
	s.appends.Add(1)
	s.appendBytes.Add(int64(len(frame)))
	switch s.opts.Fsync {
	case FsyncAlways:
		s.active.Sync()
		s.fsyncs.Add(1)
	case FsyncInterval:
		if now := time.Now(); now.Sub(s.lastSync) >= s.opts.FsyncEvery {
			s.active.Sync()
			s.fsyncs.Add(1)
			s.lastSync = now
		}
	}
	if s.opts.MaxBytes > 0 && s.size > s.opts.MaxBytes {
		s.compactLocked()
	}
}

// compactLocked rewrites the live records into a fresh segment and
// deletes the old ones; the caller (append) holds s.mu, and the lock
// is released around the rewrite since only the writer goroutine
// touches the files. Crash-safety: the new segment is written under a
// .tmp name and renamed into place only after a successful sync, so a
// kill mid-compaction leaves the old segments intact plus a .tmp the
// next Open deletes; a kill after the rename but before the deletes
// leaves duplicate records, which the last-record-wins scan absorbs.
func (s *Store) compactLocked() {
	s.compactions.Add(1)
	s.active.Sync()
	s.active.Close()
	s.active = nil

	newN := s.activeN + 1
	tmp := s.segPath(newN) + ".tmp"
	old, err := s.segments()
	var kept int64
	if err == nil {
		s.mu.Unlock()
		kept, err = s.rewrite(tmp, old)
		s.mu.Lock()
	}
	if err == nil {
		err = os.Rename(tmp, s.segPath(newN))
	}
	if err != nil {
		os.Remove(tmp)
		s.reopenActive(s.activeN + 2)
		return
	}
	for _, n := range old {
		os.Remove(s.segPath(n))
	}
	s.size = kept
	s.reopenActive(newN + 1)
}

// rewrite streams the live records of segs into a new segment file at
// path and syncs it, returning its size. Frames are copied verbatim,
// one at a time, so memory holds one frame plus the set of keys seen:
// the first occurrence of each (kind, key) is the one kept (or dropped,
// if the Live callback says it is dead) — under the store's contract a
// later record with the same key carries the same bytes.
func (s *Store) rewrite(path string, segs []int) (int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 64<<10)
	seen := make(map[[2]uint64]struct{})
	kept := int64(0)
	var werr error
	err = s.frames(segs, func(frame []byte) bool {
		kind, key := Kind(frame[8]), binary.LittleEndian.Uint64(frame[20:])
		k := [2]uint64{uint64(kind), key}
		if _, dup := seen[k]; dup {
			s.compactDropped.Add(1)
			return true
		}
		seen[k] = struct{}{}
		if s.opts.Live != nil && !s.opts.Live(kind, key) {
			s.compactDropped.Add(1)
			return true
		}
		_, werr = w.Write(frame)
		kept += int64(len(frame))
		return werr == nil
	})
	if err == nil {
		err = werr
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		return 0, err
	}
	s.fsyncs.Add(1)
	return kept, f.Close()
}

// reopenActive opens a fresh active segment numbered n; on failure the
// store degrades to memory-only (appends become drops).
func (s *Store) reopenActive(n int) {
	f, err := os.OpenFile(s.segPath(n), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		s.active = nil
		return
	}
	s.active, s.activeN = f, n
}
