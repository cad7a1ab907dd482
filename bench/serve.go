package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"probgraph/internal/core"
)

// Open-loop arrival rates, about 0.4× the closed-loop throughput measured
// on the two-core machine the benchmark was defined on (see README.md).
const (
	fleetRateRPS = 70
	churnRateRPS = 60
)

// replaceSlots are the base-corpus slots PUT /graphs/{id} cycles through.
var replaceSlots = []int{3, 17, 42, 57, 71, 88, 101, 113}

// paths locates the built binaries and the directories a run writes to, all
// inside the checkout.
type paths struct {
	bin     string // pgserve, pgproxy
	work    string // snapshots of this run; removed at exit
	results string // server logs, trace files
}

// fleet is the set of processes a serve workload talks to.
type fleet struct {
	endpoint string  // where requests go: the proxy, or the one server
	servers  []*proc // pgserve processes, in partition order
	proxy    *proc   // nil for a single server
}

func (f *fleet) stop() {
	if f.proxy != nil {
		f.proxy.stop()
	}
	for _, p := range f.servers {
		p.stop()
	}
}

func (f *fleet) pids() []int {
	var pids []int
	for _, p := range f.servers {
		pids = append(pids, p.cmd.Process.Pid)
	}
	if f.proxy != nil {
		pids = append(pids, f.proxy.cmd.Process.Pid)
	}
	return pids
}

// peakMB sums the peak resident sets of the fleet's processes.
func (f *fleet) peakMB() float64 {
	sum := 0.0
	for _, pid := range f.pids() {
		sum += peakMB(pid)
	}
	return sum
}

func (f *fleet) resetPeak() {
	for _, pid := range f.pids() {
		resetPeak(pid)
	}
}

func (f *fleet) readyMS() float64 {
	worst := 0.0
	for _, p := range f.servers {
		worst = max(worst, p.readyMS)
	}
	return worst
}

// startFleet saves db as binary snapshots — one per range shard — and
// serves them: a single pgserve, or range shards behind pgproxy.
func startFleet(w workload, db *core.Database, p paths, tag string) (*fleet, error) {
	f := &fleet{}
	ranges, err := core.PartitionRanges(db.Len(), w.shards)
	if err != nil {
		return nil, err
	}
	var files []string
	for i, r := range ranges {
		file := filepath.Join(p.work, fmt.Sprintf("%s-%s-shard%d.idx", w.name, tag, i))
		if w.shards == 1 {
			err = db.SaveFile(file, core.SnapshotBinary)
		} else {
			err = db.SaveRangeFile(file, r[0], r[1], core.SnapshotBinary)
		}
		if err != nil {
			return nil, fmt.Errorf("saving %s: %w", file, err)
		}
		files = append(files, file)
	}

	var urls []string
	for i, file := range files {
		// Auto-compaction is off: it renumbers slots, and the slots this
		// run's writes were given must stay valid for its later removes
		// and for the mirror. core.compact_ms times compaction itself.
		srv, err := startProc(fmt.Sprintf("%s-pgserve%d", w.name, i), filepath.Join(p.bin, "pgserve"), p.results,
			"-snapshot", file, "-compact-threshold", "0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		urls = append(urls, srv.url)
	}
	f.endpoint = urls[0]
	if w.shards > 1 {
		f.proxy, err = startProc(w.name+"-pgproxy", filepath.Join(p.bin, "pgproxy"), p.results, "-shards", strings.Join(urls, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.endpoint = f.proxy.url
	}
	return f, nil
}

// serveEnv is a running fleet with the in-process database it was saved
// from, which supplies reference answers and, on serve-churn, the mirror.
type serveEnv struct {
	db    *core.Database
	fleet *fleet
	cl    *client
}

func (e *serveEnv) stop() {
	e.cl.close()
	e.fleet.stop()
}

// serveSetUp goes from raw graphs to a fleet that has answered the warmKeys
// most popular keys once, which builds the lazy inference engines and fills
// the result cache the way a server that has been up for a while has it.
func serveSetUp(ctx context.Context, w workload, c *corpus, src *opSource, p paths, tag string) (*serveEnv, error) {
	db, err := core.NewDatabase(c.graphs, c.build)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(w, db, p, tag)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{db: db, fleet: f, cl: newClient(runtime.GOMAXPROCS(0))}
	var failed atomic.Pointer[error]
	openLoop(src.headKeys(warmKeys), runtime.GOMAXPROCS(0), func(o op) sample {
		if _, err := env.cl.do(ctx, f.endpoint, c, o, callOpts{}); err != nil {
			failed.Store(&err)
		}
		return sample{}
	})
	if err := failed.Load(); err != nil {
		env.stop()
		return nil, fmt.Errorf("warm-up: %w", *err)
	}
	return env, nil
}

// gate is the determinism check: for the n most popular keys, the wire
// answer to /query and /topk must equal the in-process answer bitwise.
func gate(ctx context.Context, w workload, c *corpus, env *serveEnv, keys []op, res *result) {
	v := env.db.View()
	for _, k := range keys {
		for _, kind := range []opKind{opQuery, opTopK} {
			o := k
			o.kind = kind
			res.attempted++
			want, err := callView(ctx, w, c, v, o, -1)
			if err != nil {
				res.fail("gate %s in-process: %v", o.key(), err)
				continue
			}
			got, err := env.cl.do(ctx, env.fleet.endpoint, c, o, callOpts{noCache: true})
			if err != nil {
				res.fail("gate %s: %v", o.key(), err)
			} else if got.answer != want {
				res.fail("gate %s: wire answer differs from in-process answer", o.key())
			}
		}
	}
}

// mutation is one committed write, kept so the mirror can replay it.
type mutation struct {
	kind       opKind
	pool, slot int
	index      int
}

// loadState is what the concurrent callers of a serve run share.
type loadState struct {
	w   workload
	c   *corpus
	env *serveEnv
	res *result

	mu   sync.Mutex
	seen map[string]answer // key@generation → first answer seen

	// Writes go one at a time, so their order — and with it every slot
	// and generation — is the order the mirror replays.
	mutMu      sync.Mutex
	generation uint64
	added      []int // slots added and not yet removed, oldest first
	replaced   int
	log        []mutation
	postMut    atomic.Bool // set by a write, cleared by the next read
}

func newLoadState(ctx context.Context, w workload, c *corpus, env *serveEnv, res *result) (*loadState, error) {
	ls := &loadState{w: w, c: c, env: env, res: res, seen: map[string]answer{}}
	var ready struct {
		Generation uint64 `json:"generation"`
	}
	if _, err := env.cl.send(ctx, http.MethodGet, env.fleet.servers[0].url+"/readyz", nil, &ready); err != nil {
		return nil, err
	}
	ls.generation = ready.Generation
	return ls, nil
}

// exec performs one operation and checks its reply.
func (ls *loadState) exec(ctx context.Context, o op) sample {
	if o.kind.mutation() {
		return ls.mutate(ctx, o)
	}
	afterWrite := ls.postMut.Swap(false)
	t := time.Now()
	rep, err := ls.env.cl.do(ctx, ls.env.fleet.endpoint, ls.c, o, callOpts{})
	s := sample{kind: o.kind, ms: msSince(t), cached: rep.cached, bytes: rep.bytes, afterWrite: afterWrite}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.res.attempted++
	if err != nil {
		s.failed = true
		ls.res.fail("%v", err)
		return s
	}
	// Same key, same generation: same bytes, cached or not.
	id := fmt.Sprint(o.key(), "@", rep.generation)
	if first, ok := ls.seen[id]; !ok {
		ls.seen[id] = rep.answer
	} else if first != rep.answer {
		s.failed = true
		ls.res.fail("%s: answer changed within generation %d", o.key(), rep.generation)
	}
	return s
}

func (ls *loadState) mutate(ctx context.Context, o op) sample {
	ls.mutMu.Lock()
	defer ls.mutMu.Unlock()
	m := mutation{kind: o.kind, pool: o.pool}
	switch o.kind {
	case opRemove:
		if len(ls.added) == 0 {
			m.kind = opAdd // nothing of ours to remove yet
			break
		}
		m.slot, ls.added = ls.added[0], ls.added[1:]
	case opReplace:
		m.slot = replaceSlots[ls.replaced%len(replaceSlots)]
		ls.replaced++
	}
	o.kind = m.kind
	t := time.Now()
	rep, err := ls.env.cl.do(ctx, ls.env.fleet.endpoint, ls.c, o, callOpts{slot: m.slot})
	s := sample{kind: o.kind, ms: msSince(t), bytes: rep.bytes}
	ls.postMut.Store(true)

	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.res.attempted++
	if err != nil {
		s.failed = true
		ls.res.fail("%v", err)
		return s
	}
	if rep.generation != ls.generation+1 {
		s.failed = true
		ls.res.fail("%v: generation went %d → %d, want +1", o.kind, ls.generation, rep.generation)
	}
	ls.generation = rep.generation
	m.index = rep.index
	if m.kind == opAdd {
		ls.added = append(ls.added, rep.index)
	}
	ls.log = append(ls.log, m)
	return s
}

// checkMirror replays the committed writes on the in-process database and
// requires the server's answers for the most popular keys to equal it.
func (ls *loadState) checkMirror(ctx context.Context, keys []op) {
	db := ls.env.db
	for _, m := range ls.log {
		var idx int
		var err error
		switch m.kind {
		case opAdd:
			idx, _, err = db.AddGraph(ls.c.pool[m.pool])
		case opRemove:
			idx = m.slot
			_, err = db.RemoveGraph(m.slot)
		case opReplace:
			idx = m.slot
			_, err = db.ReplaceGraph(m.slot, ls.c.pool[m.pool])
		}
		ls.res.attempted++
		if err != nil {
			ls.res.fail("mirror %v: %v", m.kind, err)
		} else if idx != m.index {
			ls.res.fail("mirror %v: server wrote slot %d, mirror slot %d", m.kind, m.index, idx)
		}
	}
	gate(ctx, ls.w, ls.c, ls.env, keys, ls.res)
}

// openLoop sends ops on their schedule from up to workers callers. An
// operation's latency runs from when it was due, not from when a caller got
// round to it, so a stall is charged to every request it delays.
func openLoop(ops []op, workers int, exec func(op) sample) []sample {
	out := make([]sample, len(ops))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				s := exec(ops[i])
				s.ms = msSince(due)
				s.lateMS = max(0, float64(sent.Sub(due).Nanoseconds())/1e6)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop has workers callers each issue its next operation as soon as
// the previous one is answered, for d.
func closedLoop(src *opSource, workers int, d time.Duration, exec func(op) sample) []sample {
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				o := src.next()
				mu.Unlock()
				s := exec(o)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}
