package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the flight recorder: an always-on, fixed-memory
// window over the recent behaviour of one session — per-wave
// propagation summaries, per-commit phase timings, WAL fsync and
// checkpoint latencies, hybrid chooser switches, and a compact mirror
// of the last bus events. When an anomaly trigger fires the window is
// frozen and written to disk as a self-contained diagnostics bundle,
// deduplicated per trigger kind with a cooldown so a storm produces one
// bundle, not hundreds.
//
// The overhead contract mirrors the event bus: disarmed, every capture
// call is a single atomic load; armed, captures append small structs to
// mutex-guarded rings (never I/O). Bundle writing happens on a
// dedicated goroutine fed by a bounded queue with a non-blocking send,
// so a trigger can never block a commit.

// BundleFormat identifies the diagnostics-bundle layout. It appears in
// every manifest so consumers can reject bundles they don't understand.
const BundleFormat = "partdiff-flightrec-bundle/1"

// Trigger kinds. Each maps to one anomaly class; bundles are
// deduplicated per kind.
const (
	TrigSlowCommit    = "slow_commit"    // commit exceeded the slow-commit threshold
	TrigFsyncStall    = "fsync_stall"    // one WAL fsync exceeded the stall threshold
	TrigCapViolation  = "capability_violation" // write denied by a sealed capability
	TrigCorruption    = "corruption"     // failed rollback poisoned the store (ErrCorrupt)
	TrigWalPoisoned   = "wal_poisoned"   // WAL write/fsync failure made the log sticky-failed
	TrigCheckBudget   = "check_budget"   // deferred check phase aborted on its budget
	TrigConflictStorm = "conflict_storm" // conflict-retry rate crossed the storm threshold
	TrigStallWatchdog = "stall_watchdog" // in-flight commits made no progress
	TrigManual        = "manual"         // operator-requested dump
)

// Recorder tuning defaults.
const (
	DefaultCooldown       = 30 * time.Second // min spacing between bundles of one trigger kind
	DefaultStallAfter     = 30 * time.Second // watchdog: in-flight commits with no progress
	DefaultStormWindow    = time.Second      // conflict-storm counting window
	DefaultStormConflicts = 8                // conflicts within the window that make a storm
	DefaultMaxBundles     = 16               // on-disk bundles retained per directory
)

// Ring capacities. The window is sized for "what just happened", not
// history: at serving rates these cover the last seconds to minutes.
const (
	waveRingSize   = 256
	commitRingSize = 256
	fsyncRingSize  = 128
	choiceRingSize = 128
	eventRingSize  = 256
)

// WaveRecord summarizes one propagation wave.
type WaveRecord struct {
	Time       time.Time `json:"time"`
	Wave       uint64    `json:"wave"`
	Executed   int       `json:"executed"`    // differentials executed this wave
	ZeroEffect int       `json:"zero_effect"` // executions that produced an empty Δ
	DeltaPlus  int       `json:"delta_plus"`  // net inserted tuples across base Δ-sets
	DeltaMinus int       `json:"delta_minus"` // net deleted tuples across base Δ-sets
	Front      int       `json:"front"`       // peak wave-front size so far
}

// CommitRecord is one commit attempt with its phase timings.
type CommitRecord struct {
	Time      time.Time `json:"time"`
	CommitSeq uint64    `json:"commit_seq,omitempty"`
	// Outcome is committed, rolled_back (check phase failed) or
	// persist_failed (WAL append/fsync failed after the check passed).
	Outcome    string  `json:"outcome"`
	CheckMs    float64 `json:"check_ms"`
	PersistMs  float64 `json:"persist_ms"`
	AckMs      float64 `json:"ack_ms"`
	TotalMs    float64 `json:"total_ms"`
	GateWaitMs float64 `json:"gate_wait_ms,omitempty"` // last writer-gate wait on this session
	Writes     int     `json:"writes"`
	Fired      int     `json:"fired"`
}

// FsyncRecord is one durability latency sample: a WAL fsync or a
// checkpoint.
type FsyncRecord struct {
	Time time.Time `json:"time"`
	Op   string    `json:"op"` // fsync | checkpoint
	Ms   float64   `json:"ms"`
}

// ChoiceRecord is one hybrid-chooser strategy switch.
type ChoiceRecord struct {
	Time     time.Time `json:"time"`
	View     string    `json:"view"`
	Strategy string    `json:"strategy"`
	Detail   string    `json:"detail,omitempty"`
}

// EventRecord is a compact mirror of one published bus event.
type EventRecord struct {
	Time      time.Time `json:"time"`
	ID        uint64    `json:"id"`
	Type      string    `json:"type"`
	Op        string    `json:"op,omitempty"`
	CommitSeq uint64    `json:"commit_seq,omitempty"`
	Rule      string    `json:"rule,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

// recRing is a fixed-capacity overwrite-oldest ring.
type recRing[T any] struct {
	buf   []T
	head  int // index of the oldest entry
	count int
}

func newRecRing[T any](n int) *recRing[T] { return &recRing[T]{buf: make([]T, n)} }

func (r *recRing[T]) push(v T) {
	if r.count == len(r.buf) {
		r.buf[r.head] = v
		r.head = (r.head + 1) % len(r.buf)
		return
	}
	r.buf[(r.head+r.count)%len(r.buf)] = v
	r.count++
}

// snapshot returns the ring contents oldest-first.
func (r *recRing[T]) snapshot() []T {
	out := make([]T, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// BundleSource contributes extra named files to a bundle (the session
// registers one that renders the \profile report, the hybrid decision
// journal and the pruned-network DOT). Sources run on the bundle-writer
// goroutine, never on the trigger path, and must bound their own
// waiting (e.g. a gate acquire with a timeout). A panicking source is
// contained and reported in the bundle's errors.
type BundleSource func(add func(name string, content []byte))

// writeTask carries one frozen window to the bundle-writer goroutine.
type writeTask struct {
	b    *Bundle
	dir  string
	keep int
	srcs []BundleSource
}

// Recorder is the flight recorder. The zero value is unusable; use
// NewRecorder (obs.New wires one into every Observability bundle,
// disarmed). All exported methods are nil-safe, and every capture
// method is a single atomic load while disarmed.
type Recorder struct {
	armed atomic.Bool

	// Stall-watchdog state, updated by CommitBegin/CommitEnd.
	inflight  atomic.Int64
	lastBegin atomic.Int64 // unix nanos of the latest commit start
	lastEnd   atomic.Int64 // unix nanos of the latest commit finish
	gateWait  atomic.Int64 // nanos of the last writer-gate wait, consumed by CommitEnd

	mu         sync.Mutex
	dir        string
	seq        uint64
	waves      *recRing[WaveRecord]
	commits    *recRing[CommitRecord]
	fsyncs     *recRing[FsyncRecord]
	choices    *recRing[ChoiceRecord]
	events     *recRing[EventRecord]
	lastTrig   map[string]time.Time
	trigCount  map[string]int64
	nBundles   int64
	nSuppress  int64
	cooldown   time.Duration
	stall      time.Duration
	stormN     int
	stormWin   time.Duration
	stormStart time.Time
	stormCount int
	maxBundles int
	sources    []BundleSource
	running    bool
	closed     bool

	queue chan *writeTask
	stop  chan struct{}
	wg    sync.WaitGroup

	reg *Registry
	bus *Bus

	triggers    *CounterVec
	bundlesC    *Counter
	suppressedC *Counter
	armedG      *Gauge
}

// NewRecorder returns a disarmed recorder with empty rings and default
// tuning. No goroutines run until Arm.
func NewRecorder() *Recorder {
	return &Recorder{
		waves:      newRecRing[WaveRecord](waveRingSize),
		commits:    newRecRing[CommitRecord](commitRingSize),
		fsyncs:     newRecRing[FsyncRecord](fsyncRingSize),
		choices:    newRecRing[ChoiceRecord](choiceRingSize),
		events:     newRecRing[EventRecord](eventRingSize),
		lastTrig:   make(map[string]time.Time),
		trigCount:  make(map[string]int64),
		cooldown:   DefaultCooldown,
		stall:      DefaultStallAfter,
		stormN:     DefaultStormConflicts,
		stormWin:   DefaultStormWindow,
		maxBundles: DefaultMaxBundles,
		queue:      make(chan *writeTask, 4),
	}
}

// bind attaches the recorder's meters to reg, its bundle event to bus,
// and the bus's event mirror back to the recorder.
func (r *Recorder) bind(reg *Registry, bus *Bus) {
	if r == nil {
		return
	}
	r.reg, r.bus = reg, bus
	r.triggers = reg.CounterVec("partdiff_flightrec_triggers_total",
		"Anomaly trigger signals observed by the flight recorder, by trigger kind.", "trigger")
	r.bundlesC = reg.Counter("partdiff_flightrec_bundles_total",
		"Diagnostics bundles written to disk.")
	r.suppressedC = reg.Counter("partdiff_flightrec_suppressed_total",
		"Bundles suppressed by the trigger cooldown, a full write queue, or a missing bundle directory.")
	r.armedG = reg.Gauge("partdiff_flightrec_armed",
		"Whether the flight recorder is armed (1) or off (0).")
	bus.setRecorder(r)
}

// Armed reports whether the recorder is capturing.
func (r *Recorder) Armed() bool { return r != nil && r.armed.Load() }

// Arm starts capturing. The first Arm starts the bundle-writer and
// stall-watchdog goroutines; they run until Close.
func (r *Recorder) Arm() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.closed && !r.running {
		r.running = true
		r.stop = make(chan struct{})
		r.wg.Add(2)
		go r.writeLoop()
		go r.watch()
	}
	r.mu.Unlock()
	r.armed.Store(true)
	r.armedG.Set(1)
}

// Disarm stops capturing without discarding the window: a later Dump
// still sees the history recorded while armed.
func (r *Recorder) Disarm() {
	if r == nil {
		return
	}
	r.armed.Store(false)
	r.armedG.Set(0)
}

// Close disarms the recorder and stops its goroutines, draining any
// queued bundle writes first. Further triggers are ignored.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	running := r.running
	r.mu.Unlock()
	r.Disarm()
	if running {
		close(r.stop)
		r.wg.Wait()
	}
}

// SetDir sets the bundle directory. Arming without a directory records
// the window but suppresses bundle writes (the A/B bench mode).
func (r *Recorder) SetDir(dir string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dir = dir
	r.mu.Unlock()
}

// Dir returns the bundle directory ("" when none is configured).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dir
}

// SetCooldown sets the per-trigger-kind bundle spacing.
func (r *Recorder) SetCooldown(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cooldown = d
	r.mu.Unlock()
}

// SetStallThreshold sets the watchdog's no-progress threshold; <= 0
// disables the watchdog.
func (r *Recorder) SetStallThreshold(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stall = d
	r.mu.Unlock()
}

// SetConflictStorm sets the conflict-storm trigger: n conflicts within
// window. n <= 0 disables the trigger.
func (r *Recorder) SetConflictStorm(n int, window time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stormN, r.stormWin = n, window
	r.stormCount, r.stormStart = 0, time.Time{}
	r.mu.Unlock()
}

// SetMaxBundles sets the on-disk retention (oldest pruned first).
func (r *Recorder) SetMaxBundles(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	r.maxBundles = n
	r.mu.Unlock()
}

// AddSource registers a bundle source (see BundleSource).
func (r *Recorder) AddSource(src BundleSource) {
	if r == nil || src == nil {
		return
	}
	r.mu.Lock()
	r.sources = append(r.sources, src)
	r.mu.Unlock()
}

// RecordWave appends one propagation-wave summary.
func (r *Recorder) RecordWave(w WaveRecord) {
	if r == nil || !r.armed.Load() {
		return
	}
	if w.Time.IsZero() {
		w.Time = time.Now()
	}
	r.mu.Lock()
	r.waves.push(w)
	r.mu.Unlock()
}

// CommitBegin marks a commit attempt in flight for the stall watchdog.
// The returned token must be passed to CommitEnd on every exit path; a
// false token (recorder disarmed at begin) makes CommitEnd a no-op, so
// arming mid-commit cannot unbalance the in-flight count.
func (r *Recorder) CommitBegin() bool {
	if r == nil || !r.armed.Load() {
		return false
	}
	r.inflight.Add(1)
	r.lastBegin.Store(time.Now().UnixNano())
	return true
}

// CommitEnd completes a CommitBegin and appends the commit record,
// folding in the last writer-gate wait noted on this recorder.
func (r *Recorder) CommitEnd(tok bool, rec CommitRecord) {
	if r == nil || !tok {
		return
	}
	r.inflight.Add(-1)
	r.lastEnd.Store(time.Now().UnixNano())
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	rec.GateWaitMs = float64(r.gateWait.Swap(0)) / 1e6
	r.mu.Lock()
	r.commits.push(rec)
	r.mu.Unlock()
}

// NoteGateWait records the latest writer-gate admission wait; the next
// CommitEnd attributes it to its commit record. With several writers
// the attribution is approximate (last wait wins), which is fine for a
// diagnostic window. An uncontended admission notes a zero wait, so an
// earlier waiter's figure is not carried over to this holder's commit.
func (r *Recorder) NoteGateWait(d time.Duration) {
	if r == nil || d < 0 || !r.armed.Load() {
		return
	}
	r.gateWait.Store(int64(d))
}

// RecordFsync appends one durability latency sample (op is "fsync" or
// "checkpoint").
func (r *Recorder) RecordFsync(op string, d time.Duration) {
	if r == nil || !r.armed.Load() {
		return
	}
	r.mu.Lock()
	r.fsyncs.push(FsyncRecord{Time: time.Now(), Op: op, Ms: float64(d) / 1e6})
	r.mu.Unlock()
}

// RecordChoice appends one hybrid-chooser strategy switch.
func (r *Recorder) RecordChoice(view, strategy, detail string) {
	if r == nil || !r.armed.Load() {
		return
	}
	r.mu.Lock()
	r.choices.push(ChoiceRecord{Time: time.Now(), View: view, Strategy: strategy, Detail: detail})
	r.mu.Unlock()
}

// noteEvent mirrors one published bus event into the recorder. Called
// from the bus publish path under the bus mutex; lock order is always
// bus.mu before Recorder.mu, never the reverse.
func (r *Recorder) noteEvent(e Event) {
	if !r.armed.Load() {
		return
	}
	r.mu.Lock()
	r.events.push(EventRecord{
		Time: e.Time, ID: e.ID, Type: string(e.Type), Op: e.Op,
		CommitSeq: e.CommitSeq, Rule: e.Rule, Detail: e.Detail,
	})
	r.mu.Unlock()
}

// NoteConflict feeds the conflict-storm trigger one write-write
// conflict.
func (r *Recorder) NoteConflict() {
	if r == nil || !r.armed.Load() {
		return
	}
	r.mu.Lock()
	if r.stormN > 0 {
		now := time.Now()
		if r.stormStart.IsZero() || now.Sub(r.stormStart) > r.stormWin {
			r.stormStart, r.stormCount = now, 0
		}
		r.stormCount++
		if r.stormCount == r.stormN {
			r.triggerLocked(TrigConflictStorm,
				fmt.Sprintf("%d conflicts within %s", r.stormCount, r.stormWin))
		}
	}
	r.mu.Unlock()
}

// Trigger fires an anomaly trigger: the window is frozen and a bundle
// write is scheduled, unless the trigger kind is inside its cooldown,
// the write queue is full, or no bundle directory is set. Returns
// whether a bundle was scheduled. Trigger never blocks on I/O.
func (r *Recorder) Trigger(kind, detail string) bool {
	if r == nil || !r.armed.Load() {
		return false
	}
	r.mu.Lock()
	ok := r.triggerLocked(kind, detail)
	r.mu.Unlock()
	return ok
}

func (r *Recorder) triggerLocked(kind, detail string) bool {
	r.trigCount[kind]++
	r.triggers.With(kind).Inc()
	if r.closed || r.dir == "" {
		return false
	}
	now := time.Now()
	if last, ok := r.lastTrig[kind]; ok && now.Sub(last) < r.cooldown {
		r.nSuppress++
		r.suppressedC.Inc()
		return false
	}
	r.lastTrig[kind] = now
	task := &writeTask{b: r.bundleLocked(kind, detail, now), dir: r.dir, keep: r.maxBundles, srcs: r.sources}
	select {
	case r.queue <- task:
		return true
	default:
		r.nSuppress++
		r.suppressedC.Inc()
		return false
	}
}

// bundleLocked freezes the window into a new Bundle. Caller holds r.mu.
func (r *Recorder) bundleLocked(kind, detail string, now time.Time) *Bundle {
	r.seq++
	return &Bundle{
		Manifest: Manifest{
			Format:    BundleFormat,
			Name:      fmt.Sprintf("bundle-%d-%06d-%s", now.UnixMilli(), r.seq, kind),
			Seq:       r.seq,
			Trigger:   kind,
			Detail:    detail,
			Time:      now,
			Version:   Version(),
			GoVersion: runtime.Version(),
		},
		Waves:   r.waves.snapshot(),
		Commits: r.commits.snapshot(),
		Fsyncs:  r.fsyncs.snapshot(),
		Choices: r.choices.snapshot(),
		Events:  r.events.snapshot(),
	}
}

// BundleNow freezes the window and completes a bundle synchronously
// (metrics snapshot, goroutine dump, registered sources), without
// consulting the trigger cooldown and without writing to disk. kind
// defaults to manual.
func (r *Recorder) BundleNow(kind, detail string) *Bundle {
	if r == nil {
		return nil
	}
	if kind == "" {
		kind = TrigManual
	}
	r.mu.Lock()
	b := r.bundleLocked(kind, detail, time.Now())
	srcs := r.sources
	r.mu.Unlock()
	r.complete(b, srcs)
	return b
}

// Dump writes an on-demand bundle to the configured directory and
// returns its path. Unlike Trigger it is synchronous and bypasses the
// cooldown.
func (r *Recorder) Dump() (string, error) {
	if r == nil {
		return "", errors.New("obs: no flight recorder")
	}
	r.mu.Lock()
	dir, keep := r.dir, r.maxBundles
	r.mu.Unlock()
	if dir == "" {
		return "", errors.New("obs: flight recorder has no bundle directory")
	}
	b := r.BundleNow(TrigManual, "requested dump")
	path, err := b.WriteDir(dir)
	if err != nil {
		return "", err
	}
	r.bundleWritten()
	pruneBundles(dir, keep)
	r.publishBundle(path)
	return path, nil
}

func (r *Recorder) bundleWritten() {
	r.bundlesC.Inc()
	r.mu.Lock()
	r.nBundles++
	r.mu.Unlock()
}

func (r *Recorder) publishBundle(path string) {
	if r.bus != nil {
		r.bus.Publish(Event{Type: EventSystem, Op: "diagnostic_bundle", Detail: path})
	}
}

// writeLoop is the bundle-writer goroutine: it completes frozen windows
// (the slow part — metrics, goroutine dump, gated sources) and writes
// them to disk, off the trigger path.
func (r *Recorder) writeLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			for {
				select {
				case t := <-r.queue:
					r.handle(t)
				default:
					return
				}
			}
		case t := <-r.queue:
			r.handle(t)
		}
	}
}

func (r *Recorder) handle(t *writeTask) {
	r.complete(t.b, t.srcs)
	path, err := t.b.WriteDir(t.dir)
	if err != nil {
		r.mu.Lock()
		r.nSuppress++
		r.mu.Unlock()
		r.suppressedC.Inc()
		return
	}
	r.bundleWritten()
	pruneBundles(t.dir, t.keep)
	r.publishBundle(path)
}

// complete fills a frozen bundle's slow sections: the metrics snapshot,
// a full goroutine dump, and every registered source's files.
func (r *Recorder) complete(b *Bundle, srcs []BundleSource) {
	if r.reg != nil {
		b.Metrics = r.reg.Gather()
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	b.Goroutines = string(buf[:n])
	for _, src := range srcs {
		func() {
			defer func() {
				if p := recover(); p != nil {
					b.Errors = append(b.Errors, fmt.Sprintf("bundle source panic: %v", p))
				}
			}()
			src(func(name string, content []byte) {
				if b.Extras == nil {
					b.Extras = make(map[string]string)
				}
				b.Extras[filepath.Base(name)] = string(content)
			})
		}()
	}
	b.Records = map[string]int{
		"waves": len(b.Waves), "commits": len(b.Commits), "fsyncs": len(b.Fsyncs),
		"choices": len(b.Choices), "events": len(b.Events),
	}
}

// watch is the stall-watchdog goroutine: it triggers when commits are
// in flight but none has started or finished for the stall threshold —
// a global no-progress condition, as opposed to slow_commit which needs
// a commit to complete before it can fire.
func (r *Recorder) watch() {
	defer r.wg.Done()
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			if !r.armed.Load() {
				continue
			}
			r.mu.Lock()
			stall := r.stall
			r.mu.Unlock()
			if stall <= 0 || r.inflight.Load() == 0 {
				continue
			}
			last := r.lastBegin.Load()
			if e := r.lastEnd.Load(); e > last {
				last = e
			}
			if last == 0 {
				continue
			}
			if idle := time.Since(time.Unix(0, last)); idle > stall {
				r.Trigger(TrigStallWatchdog, fmt.Sprintf(
					"%d commit(s) in flight, no progress for %s",
					r.inflight.Load(), idle.Round(time.Millisecond)))
			}
		}
	}
}

// WriteReport renders the recorder state — the shell's \flightrec
// report.
func (r *Recorder) WriteReport(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "flight recorder: not available")
		return err
	}
	r.mu.Lock()
	armed, dir := r.armed.Load(), r.dir
	occ := fmt.Sprintf("waves=%d/%d commits=%d/%d fsyncs=%d/%d choices=%d/%d events=%d/%d",
		r.waves.count, waveRingSize, r.commits.count, commitRingSize,
		r.fsyncs.count, fsyncRingSize, r.choices.count, choiceRingSize,
		r.events.count, eventRingSize)
	kinds := make([]string, 0, len(r.trigCount))
	for k := range r.trigCount {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	counts := make(map[string]int64, len(kinds))
	lasts := make(map[string]time.Time, len(kinds))
	for _, k := range kinds {
		counts[k] = r.trigCount[k]
		lasts[k] = r.lastTrig[k]
	}
	bundles, suppressed := r.nBundles, r.nSuppress
	cooldown, stall := r.cooldown, r.stall
	stormN, stormWin := r.stormN, r.stormWin
	r.mu.Unlock()

	state := "off"
	if armed {
		state = "armed"
	}
	if dir == "" {
		dir = "(none — window only, no bundles)"
	}
	if _, err := fmt.Fprintf(w, "flight recorder: %s dir=%s\n", state, dir); err != nil {
		return err
	}
	fmt.Fprintf(w, "  window: %s\n", occ)
	fmt.Fprintf(w, "  tuning: cooldown=%s stall=%s storm=%d/%s\n", cooldown, stall, stormN, stormWin)
	fmt.Fprintf(w, "  bundles written=%d suppressed=%d\n", bundles, suppressed)
	if len(kinds) == 0 {
		fmt.Fprintln(w, "  triggers: (none)")
		return nil
	}
	fmt.Fprintln(w, "  triggers:")
	for _, k := range kinds {
		fmt.Fprintf(w, "    %-22s %6d   last %s\n", k, counts[k], lasts[k].Format(time.RFC3339))
	}
	return nil
}

// Manifest is the bundle's manifest.json: identity, provenance and a
// table of contents. It is written last, so its presence marks a
// complete bundle.
type Manifest struct {
	Format    string         `json:"format"`
	Name      string         `json:"name"`
	Seq       uint64         `json:"seq"`
	Trigger   string         `json:"trigger"`
	Detail    string         `json:"detail,omitempty"`
	Time      time.Time      `json:"time"`
	Version   string         `json:"version"`
	GoVersion string         `json:"go_version"`
	Records   map[string]int `json:"records,omitempty"`
	Files     []string       `json:"files,omitempty"`
	Errors    []string       `json:"errors,omitempty"`
}

// Bundle is one complete diagnostics bundle. Over HTTP it travels as a
// single JSON document; WriteDir persists it as a directory holding the
// manifest, the recorder window as JSONL, the metrics snapshot, the
// goroutine dump and each source-contributed file.
type Bundle struct {
	Manifest
	Path       string            `json:"path,omitempty"`
	Waves      []WaveRecord      `json:"waves"`
	Commits    []CommitRecord    `json:"commits"`
	Fsyncs     []FsyncRecord     `json:"fsyncs"`
	Choices    []ChoiceRecord    `json:"choices"`
	Events     []EventRecord     `json:"events"`
	Metrics    []Point           `json:"metrics,omitempty"`
	Extras     map[string]string `json:"extras,omitempty"`
	Goroutines string            `json:"goroutines,omitempty"`
}

// recLine is one recorder.jsonl line: kind plus exactly one populated
// record.
type recLine struct {
	Kind   string        `json:"kind"`
	Wave   *WaveRecord   `json:"wave,omitempty"`
	Commit *CommitRecord `json:"commit,omitempty"`
	Fsync  *FsyncRecord  `json:"fsync,omitempty"`
	Choice *ChoiceRecord `json:"choice,omitempty"`
	Event  *EventRecord  `json:"event,omitempty"`
}

// WriteDir writes the bundle under root as root/<bundle name>/ and
// returns the bundle directory path.
func (b *Bundle) WriteDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir := filepath.Join(root, b.Name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return "", err
	}

	var rec bytes.Buffer
	enc := json.NewEncoder(&rec)
	for i := range b.Waves {
		enc.Encode(recLine{Kind: "wave", Wave: &b.Waves[i]})
	}
	for i := range b.Commits {
		enc.Encode(recLine{Kind: "commit", Commit: &b.Commits[i]})
	}
	for i := range b.Fsyncs {
		enc.Encode(recLine{Kind: "fsync", Fsync: &b.Fsyncs[i]})
	}
	for i := range b.Choices {
		enc.Encode(recLine{Kind: "choice", Choice: &b.Choices[i]})
	}
	for i := range b.Events {
		enc.Encode(recLine{Kind: "event", Event: &b.Events[i]})
	}

	files := map[string][]byte{
		"recorder.jsonl": rec.Bytes(),
		"goroutines.txt": []byte(b.Goroutines),
	}
	if mj, err := json.MarshalIndent(b.Metrics, "", "  "); err == nil {
		files["metrics.json"] = mj
	}
	for name, content := range b.Extras {
		files[name] = []byte(content)
	}
	b.Files = make([]string, 0, len(files)+1)
	for name := range files {
		b.Files = append(b.Files, name)
	}
	b.Files = append(b.Files, "manifest.json")
	sort.Strings(b.Files)
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			return "", err
		}
	}
	man, err := json.MarshalIndent(b.Manifest, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(man, '\n'), 0o644); err != nil {
		return "", err
	}
	b.Path = dir
	return dir, nil
}

// BundleInfo is one entry of a bundle-directory listing.
type BundleInfo struct {
	Name    string    `json:"name"`
	Trigger string    `json:"trigger"`
	Detail  string    `json:"detail,omitempty"`
	Time    time.Time `json:"time"`
}

// ListBundles lists complete bundles (those with a readable manifest)
// in the configured directory, oldest first.
func (r *Recorder) ListBundles() ([]BundleInfo, error) {
	dir := r.Dir()
	if dir == "" {
		return nil, errors.New("obs: flight recorder has no bundle directory")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []BundleInfo
	for _, ent := range ents {
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "bundle-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name(), "manifest.json"))
		if err != nil {
			continue
		}
		var m Manifest
		if json.Unmarshal(data, &m) != nil || m.Format != BundleFormat {
			continue
		}
		out = append(out, BundleInfo{Name: ent.Name(), Trigger: m.Trigger, Detail: m.Detail, Time: m.Time})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// pruneBundles removes the oldest bundle directories beyond keep. Names
// embed a millisecond timestamp plus the recorder sequence, so
// lexicographic order is creation order within a process.
func pruneBundles(root string, keep int) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return
	}
	var names []string
	for _, ent := range ents {
		if ent.IsDir() && strings.HasPrefix(ent.Name(), "bundle-") {
			names = append(names, ent.Name())
		}
	}
	if len(names) <= keep {
		return
	}
	sort.Strings(names)
	for _, name := range names[:len(names)-keep] {
		os.RemoveAll(filepath.Join(root, name))
	}
}
