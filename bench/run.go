package main

import (
	"context"
	"fmt"
	"path"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/vfs"
)

const (
	numSlices = 5
	opTimeout = 5 * time.Second // a slower op counts as failed

	// Open loop: arrivals beyond this many outstanding are shed. It is 4 s
	// of arrivals at mixed-open's rate, just short of opTimeout: a stall
	// the host imposes for a few hundred milliseconds shows in the
	// latencies, which are timed from the intended instant, and not as
	// failed ops.
	maxOutstanding = 8192
)

// window is the time frame of one run: a warm-up that is discarded,
// then the measured part cut into numSlices slices.
type window struct {
	begin    time.Time // first op
	t0       time.Time // warm-up over, slice 0 begins
	sliceLen time.Duration
}

func newWindow(warmup, measured time.Duration) window {
	now := time.Now()
	return window{begin: now, t0: now.Add(warmup), sliceLen: measured / numSlices}
}

func (w window) end() time.Time { return w.t0.Add(numSlices * w.sliceLen) }

// slice returns the slice an instant falls in, or -1 outside the
// measured part.
func (w window) slice(at time.Time) int {
	if at.Before(w.t0) {
		return -1
	}
	if i := int(at.Sub(w.t0) / w.sliceLen); i < numSlices {
		return i
	}
	return -1
}

type sliceRec struct {
	ok, failed int64
	lats       []int64 // ns, successful ops
}

// mutation is one namespace-changing op and whether it was acked; the
// output check replays these.
type mutation struct {
	o     op
	acked bool
}

// recorder accumulates the outcome of ops. Closed-loop workers own one
// each; the open loop shares one.
type recorder struct {
	w        window
	mu       sync.Mutex
	slices   [numSlices]sliceRec
	muts     []mutation
	late     []int64 // ns, dispatch minus intended instant (open loop)
	shed     int64
	firstErr error
}

// record files one finished op under the slice of its completion.
func (r *recorder) record(o op, done time.Time, lat time.Duration, err error) {
	if err == nil && lat > opTimeout {
		err = fmt.Errorf("%s %s took %v", o.kind, o.path, lat)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if o.kind.mutates() {
		r.muts = append(r.muts, mutation{o, err == nil})
	}
	if err != nil && r.firstErr == nil {
		r.firstErr = fmt.Errorf("%s %s: %w", o.kind, o.path, err)
	}
	i := r.w.slice(done)
	if i < 0 {
		return
	}
	if err != nil {
		r.slices[i].failed++
		return
	}
	r.slices[i].ok++
	r.slices[i].lats = append(r.slices[i].lats, int64(lat))
}

// drop counts an arrival that was shed because too many were
// outstanding.
func (r *recorder) drop(o op, due time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if o.kind.mutates() {
		r.muts = append(r.muts, mutation{o, false})
	}
	if i := r.w.slice(due); i >= 0 {
		r.slices[i].failed++
		r.shed++
	}
}

func mergeRecorders(recs []*recorder) *recorder {
	out := &recorder{w: recs[0].w}
	for _, r := range recs {
		for i := range r.slices {
			out.slices[i].ok += r.slices[i].ok
			out.slices[i].failed += r.slices[i].failed
			out.slices[i].lats = append(out.slices[i].lats, r.slices[i].lats...)
		}
		out.muts = append(out.muts, r.muts...)
		out.late = append(out.late, r.late...)
		out.shed += r.shed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// execVFS issues one generated op on a mount and checks what it
// returns.
func execVFS(fs vfs.FileSystem, o op) error {
	switch o.kind {
	case opMkdir:
		return fs.Mkdir(o.path, o.perm)
	case opRmdir:
		return fs.Rmdir(o.path)
	case opCreate:
		h, err := fs.Create(o.path, o.perm)
		if err != nil {
			return err
		}
		return h.Close()
	case opUnlink:
		return fs.Unlink(o.path)
	case opRename:
		return fs.Rename(o.path, o.path2)
	case opChmod:
		return fs.Chmod(o.path, o.perm)
	case opStat:
		fi, err := fs.Stat(o.path)
		if err == nil && fi.Name != path.Base(o.path) {
			err = fmt.Errorf("stat returned name %q", fi.Name)
		}
		return err
	case opOpen:
		h, err := fs.Open(o.path, vfs.OpenRead)
		if err != nil {
			return err
		}
		return h.Close()
	case opReaddir:
		es, err := fs.Readdir(o.path)
		if err == nil && len(es) < o.want {
			err = fmt.Errorf("readdir returned %d entries, want at least %d", len(es), o.want)
		}
		return err
	case opMkRmdir:
		if err := fs.Mkdir(o.path, o.perm); err != nil {
			return err
		}
		return fs.Rmdir(o.path)
	}
	return fmt.Errorf("op %s is not a vfs op", o.kind)
}

// runClosed drives one blocking worker per mount until the window
// closes: each worker issues its next op when the previous one
// returned.
func runClosed(d *deployment, gens []generator, w window) *recorder {
	recs := make([]*recorder, len(gens))
	var wg sync.WaitGroup
	for k, g := range gens {
		recs[k] = &recorder{w: w}
		wg.Add(1)
		go func(fs vfs.FileSystem, g generator, rec *recorder) {
			defer wg.Done()
			end := w.end()
			for {
				start := time.Now()
				if !start.Before(end) {
					return
				}
				o := g.next()
				err := execVFS(fs, o)
				done := time.Now()
				rec.record(o, done, done.Sub(start), err)
			}
		}(d.mounts[k].fs, g, recs[k])
	}
	wg.Wait()
	return mergeRecorders(recs)
}

// runOpen dispatches the generator's arrivals at their intended
// instants whatever the state of earlier ops, and times each from that
// instant. serial runs a mount's ops one at a time (traced runs: one op
// in flight per mount keeps span parents unambiguous); otherwise every
// arrival gets its own goroutine.
func runOpen(d *deployment, g generator, w window, serial bool) *recorder {
	rec := &recorder{w: w}
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	finish := func(o op, due time.Time, err error) {
		done := time.Now()
		rec.record(o, done, done.Sub(due), err)
		outstanding.Add(-1)
	}
	// Sized to the shed limit, so a send never blocks the dispatcher.
	queues := make([]chan func(), len(d.mounts))
	if serial {
		for k := range queues {
			queues[k] = make(chan func(), maxOutstanding)
			wg.Add(1)
			go func(q chan func()) {
				defer wg.Done()
				for run := range q {
					run()
				}
			}(queues[k])
		}
	}
	end := w.end()
	for {
		o := g.next()
		due := w.begin.Add(o.at)
		if !due.Before(end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if w.slice(due) >= 0 {
			rec.late = append(rec.late, int64(time.Since(due)))
		}
		if outstanding.Load() >= maxOutstanding {
			rec.drop(o, due)
			continue
		}
		outstanding.Add(1)
		fs := d.mounts[o.mount].fs
		run := func() { finish(o, due, execVFS(fs, o)) }
		if serial {
			queues[o.mount] <- run
		} else {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
	}
	for _, q := range queues {
		if q != nil {
			close(q)
		}
	}
	wg.Wait()
	return rec
}

func coordOp(o op) coord.Op {
	switch o.kind {
	case opZCreate:
		return coord.CreateOp(o.path, o.data, 0)
	case opZSet:
		return coord.SetOp(o.path, o.data, -1)
	default:
		return coord.DeleteOp(o.path, -1)
	}
}

// runPipelined keeps wanWindow futures in flight on every session
// through coord.Pipeline, one goroutine per session. An op is timed
// from its submission to the moment it is joined as the oldest future;
// completions arrive in submission order on one connection, so that is
// its completion but for the join's own delay.
func runPipelined(d *deployment, gens []generator, w window) *recorder {
	type pending struct {
		o     op
		start time.Time
	}
	recs := make([]*recorder, len(gens))
	var wg sync.WaitGroup
	for k, g := range gens {
		recs[k] = &recorder{w: w}
		wg.Add(1)
		go func(sess coord.Client, g generator, rec *recorder) {
			defer wg.Done()
			p := coord.NewPipeline(context.Background(), sess)
			var flight []pending
			join := func() {
				err := p.WaitOne()
				done := time.Now()
				rec.record(flight[0].o, done, done.Sub(flight[0].start), err)
				flight = flight[1:]
			}
			end := w.end()
			for time.Now().Before(end) {
				for p.Outstanding() < wanWindow {
					o := g.next()
					flight = append(flight, pending{o, time.Now()})
					p.Begin(coordOp(o))
				}
				join()
			}
			for len(flight) > 0 {
				join()
			}
		}(d.mounts[k].sess, g, recs[k])
	}
	wg.Wait()
	return mergeRecorders(recs)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// sampleCPU reads the process CPU clock at every slice boundary and
// returns the CPU spent in each slice.
func sampleCPU(w window) ([numSlices]time.Duration, error) {
	var marks [numSlices + 1]time.Duration
	for i := range marks {
		time.Sleep(time.Until(w.t0.Add(time.Duration(i) * w.sliceLen)))
		c, err := cpuTime()
		if err != nil {
			return [numSlices]time.Duration{}, err
		}
		marks[i] = c
	}
	var out [numSlices]time.Duration
	for i := range out {
		out[i] = marks[i+1] - marks[i]
	}
	return out, nil
}

// value is one reported end-to-end number: the median of the slice
// values, their inter-quartile range, and how many samples back it.
type value struct {
	median, iqr float64
	n           int
	slices      []float64
}

// scaled returns the value with every number multiplied by f.
func (v value) scaled(f float64) value {
	out := value{v.median * f, v.iqr * f, v.n, make([]float64, len(v.slices))}
	for i, s := range v.slices {
		out.slices[i] = s * f
	}
	return out
}

// endToEnd reduces a run to its end-to-end metrics. setup_s is added
// by the caller.
func endToEnd(rec *recorder) (map[string]value, error) {
	var ops, p50, p90, okFrac []float64
	var samples, attempted int
	for i, s := range rec.slices {
		if s.ok == 0 {
			if rec.firstErr != nil {
				return nil, fmt.Errorf("slice %d completed no op; first error: %w", i, rec.firstErr)
			}
			return nil, fmt.Errorf("slice %d completed no op", i)
		}
		ops = append(ops, float64(s.ok)/rec.w.sliceLen.Seconds())
		p50 = append(p50, quantileNS(s.lats, 0.5)/1e6)
		p90 = append(p90, quantileNS(s.lats, 0.9)/1e6)
		okFrac = append(okFrac, float64(s.ok)/float64(s.ok+s.failed))
		samples += len(s.lats)
		attempted += int(s.ok + s.failed)
	}
	mk := func(vs []float64, n int) value { return value{median(vs), iqr(vs), n, vs} }
	return map[string]value{
		"ops_per_s":  mk(ops, samples),
		"lat_p50_ms": mk(p50, samples),
		"lat_p90_ms": mk(p90, samples),
		"ok_frac":    mk(okFrac, attempted),
	}, nil
}

func (r *recorder) totals() (attempted, failed int64) {
	for _, s := range r.slices {
		attempted += s.ok + s.failed
		failed += s.failed
	}
	return attempted, failed
}

func (r *recorder) allLats() []int64 {
	var all []int64
	for _, s := range r.slices {
		all = append(all, s.lats...)
	}
	return all
}
