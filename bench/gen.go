package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
)

// opKind is one route of the dispatch API as the generator drives it.
type opKind uint8

const (
	opSubmit opKind = iota
	opNext
	opAnswer
	opSubmitBatch
	opLeaseBatch
	opAnswerBatch
	opGetTask
	opPosterior
	opTrace
	numOps
)

var opNames = [numOps]string{
	"submit", "next", "answer", "submit_batch", "lease_batch", "answer_batch",
	"get_task", "posterior", "trace",
}

func (k opKind) String() string { return opNames[k] }

// mutating reports whether the route changes state; those requests carry
// an Idempotency-Key, as a careful client's would.
func (k opKind) mutating() bool {
	switch k {
	case opSubmit, opAnswer, opSubmitBatch, opAnswerBatch:
		return true
	}
	return false
}

const (
	numWorkers = 256
	batchItems = 64
	zipfS      = 1.1
)

// workload is one traffic mix against one server configuration. The table
// in README.md says why each exists; BENCHMARK.json carries the short form.
type workload struct {
	name       string
	walSync    string // hcservd -wal-sync
	follower   bool   // attach a -follow process and end with a failover
	kind       string // task kind submitted and preloaded
	redundancy int
	priorities int      // preloaded and submitted tasks cycle through this many priorities
	preload    int      // tasks resident before timing starts
	unit       []opKind // each client repeats this sequence
	ladder     [3]float64
	limitMs    float64 // open-loop latency limit on p99 from due time
}

// The open-loop ladders were set once on the 2-core reference host so the
// middle rung is about half the closed-loop request rate measured there
// (worker_loop ~2700, batch_pipeline ~190, durable_failover ~900,
// backlog_reads ~5500 req/s).
var workloads = []workload{
	{
		name: "worker_loop", walSync: "interval", kind: "compare", redundancy: 3, priorities: 1,
		preload: 10000,
		unit:    []opKind{opSubmit, opNext, opAnswer, opNext, opAnswer, opNext, opAnswer},
		ladder:  [3]float64{650, 1300, 2600}, limitMs: 25,
	},
	{
		name: "batch_pipeline", walSync: "interval", kind: "compare", redundancy: 3, priorities: 1,
		preload: 10000,
		unit:    []opKind{opSubmitBatch, opLeaseBatch, opAnswerBatch, opLeaseBatch, opAnswerBatch, opLeaseBatch, opAnswerBatch},
		ladder:  [3]float64{45, 90, 180}, limitMs: 100,
	},
	{
		name: "durable_failover", walSync: "always", follower: true, kind: "label", redundancy: 1, priorities: 1,
		preload: 10000,
		unit:    []opKind{opSubmit, opNext, opAnswer},
		ladder:  [3]float64{225, 450, 900}, limitMs: 25,
	},
	{
		name: "backlog_reads", walSync: "interval", kind: "compare", redundancy: 3, priorities: 4,
		preload: 50000,
		unit: []opKind{opGetTask, opGetTask, opNext, opGetTask, opPosterior,
			opGetTask, opAnswer, opGetTask, opTrace, opGetTask},
		ladder: [3]float64{1300, 2600, 5200}, limitMs: 25,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// taskSpec is what one submit body encodes, kept beside the bytes so the
// in-process rungs can make the same call without decoding JSON.
type taskSpec struct {
	Kind       string
	ImageA     int
	ImageB     int
	Redundancy int
	Priority   int
}

func (t taskSpec) appendJSON(b []byte) []byte {
	b = append(b, `{"kind":"`...)
	b = append(b, t.Kind...)
	b = append(b, `","payload":{"image_id":`...)
	b = strconv.AppendInt(b, int64(t.ImageA), 10)
	if t.ImageB != 0 {
		b = append(b, `,"image_b":`...)
		b = strconv.AppendInt(b, int64(t.ImageB), 10)
	}
	b = append(b, `},"redundancy":`...)
	b = strconv.AppendInt(b, int64(t.Redundancy), 10)
	b = append(b, `,"priority":`...)
	b = strconv.AppendInt(b, int64(t.Priority), 10)
	return append(b, '}')
}

func encodeBatch(specs []taskSpec) []byte {
	b := []byte(`{"tasks":[`)
	for i, t := range specs {
		if i > 0 {
			b = append(b, ',')
		}
		b = t.appendJSON(b)
	}
	return append(b, `]}`...)
}

// op is one request of a stream, fixed before timing starts. What it
// cannot fix — the lease an answer spends, which the server chose — is
// filled in at send time from the generator's lease pool.
type op struct {
	kind   opKind
	worker uint16 // next, lease_batch: who asks
	body   int32  // submit, submit_batch: index into stream.bodies
	pick   uint32 // reads: Zipf rank of the task asked for
}

// stream is one client's repeating request sequence.
type stream struct {
	ops    []op
	bodies [][]byte
	specs  [][]taskSpec // specs[i] are the tasks bodies[i] encodes
}

// unitsPerStream is how many times the workload's unit is laid out with
// fresh random draws before the stream repeats.
const unitsPerStream = 512

// crowd is the simulated workforce: a fixed accuracy per worker, and a
// hidden truth per task that their votes are drawn against.
type crowd struct {
	seed     uint64
	accuracy [numWorkers]float64
}

func newCrowd(seed int64) *crowd {
	r := rand.New(rand.NewSource(seed ^ 0x63726f7764))
	c := &crowd{seed: uint64(seed)}
	for i := range c.accuracy {
		// 0.6–0.95, denser near the top: most of a real crowd is decent.
		u := r.Float64()
		c.accuracy[i] = 0.95 - 0.35*u*u
	}
	// Best first: the Zipf draw makes worker 0 the busiest, and the people
	// who do the most work are the practised ones. It also keeps the
	// label-accuracy check from hinging on one seed's busiest worker.
	sort.Sort(sort.Reverse(sort.Float64Slice(c.accuracy[:])))
	return c
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// truth is the hidden correct choice of a compare task.
func (c *crowd) truth(taskID int64) int {
	return int(splitmix(c.seed^uint64(taskID)*0x2545f4914f6cdd1d) & 1)
}

// vote is what worker w answers on taskID: the truth with the worker's
// accuracy, the other choice otherwise. A pure function of the seed, so a
// replay on another rung sees the same crowd.
func (c *crowd) vote(w uint16, taskID int64) int {
	h := splitmix(c.seed ^ uint64(taskID)*0x9e3779b97f4a7c15 ^ uint64(w)<<48)
	t := c.truth(taskID)
	if float64(h>>11)/(1<<53) < c.accuracy[w] {
		return t
	}
	return 1 - t
}

// word is the label a worker gives a label task.
func (c *crowd) word(w uint16, taskID int64) int {
	return 1 + int(splitmix(c.seed^uint64(taskID)^uint64(w)<<32)%numLabelWords)
}

const numLabelWords = 16

// newSpec draws one task to submit.
func (w *workload) newSpec(r *rand.Rand, n int) taskSpec {
	t := taskSpec{Kind: w.kind, ImageA: 1 + r.Intn(1<<20), Redundancy: w.redundancy, Priority: n % w.priorities}
	if w.kind == "compare" {
		t.ImageB = 1 + r.Intn(1<<20)
	}
	return t
}

// newStream lays out client's request sequence from the seed.
func newStream(w *workload, seed int64, client int) *stream {
	r := rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 1))
	workers := rand.NewZipf(r, zipfS, 1, numWorkers-1)
	targets := rand.NewZipf(r, zipfS, 1, uint64(w.preload-1))
	st := &stream{}
	submitted := 0
	for u := 0; u < unitsPerStream; u++ {
		for _, k := range w.unit {
			o := op{kind: k, body: -1}
			switch k {
			case opSubmit, opSubmitBatch:
				n := 1
				if k == opSubmitBatch {
					n = batchItems
				}
				specs := make([]taskSpec, n)
				for i := range specs {
					specs[i] = w.newSpec(r, submitted)
					submitted++
				}
				o.body = int32(len(st.bodies))
				if k == opSubmit {
					st.bodies = append(st.bodies, specs[0].appendJSON(nil))
				} else {
					st.bodies = append(st.bodies, encodeBatch(specs))
				}
				st.specs = append(st.specs, specs)
			case opNext, opLeaseBatch:
				o.worker = uint16(workers.Uint64())
			case opGetTask, opTrace, opPosterior:
				o.pick = uint32(targets.Uint64())
			}
			st.ops = append(st.ops, o)
		}
	}
	return st
}

// preloadBatch is how many tasks one preload request carries: the most
// the :batch route accepts.
const preloadBatch = 256

// newPreloadSpecs draws the resident set.
func newPreloadSpecs(w *workload, seed int64) []taskSpec {
	r := rand.New(rand.NewSource(seed ^ 0x7072656c6f6164))
	specs := make([]taskSpec, w.preload)
	for i := range specs {
		specs[i] = w.newSpec(r, i)
	}
	return specs
}

// preloadBodies encodes the resident set as :batch requests.
func preloadBodies(w *workload, seed int64) [][]byte {
	var out [][]byte
	for specs := newPreloadSpecs(w, seed); len(specs) > 0; {
		n := min(preloadBatch, len(specs))
		out = append(out, encodeBatch(specs[:n]))
		specs = specs[n:]
	}
	return out
}

// residentID maps a Zipf rank onto a preloaded task ID, scattered so the
// hot ranks do not all sit on one shard.
func (w *workload) residentID(rank uint32) int64 {
	return 1 + int64(uint64(rank)*7919%uint64(w.preload))
}

// streamSHA256 fingerprints everything the seed decides about a workload's
// load: the crowd, every client's requests, and the preload (as encoded by
// preloadBodies). Two runs that print the same value sent the same load.
func streamSHA256(w *workload, seed int64, clients int, preload [][]byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s/%d/%d\n", w.name, seed, clients)
	c := newCrowd(seed)
	var buf [8]byte
	for _, a := range c.accuracy {
		binary.LittleEndian.PutUint64(buf[:], uint64(a*(1<<52)))
		h.Write(buf[:])
	}
	for cl := 0; cl <= clients; cl++ { // client index `clients` is the open-loop stream
		st := newStream(w, seed, cl)
		for _, o := range st.ops {
			h.Write([]byte{byte(o.kind), byte(o.worker), byte(o.worker >> 8)})
			binary.LittleEndian.PutUint32(buf[:4], o.pick)
			h.Write(buf[:4])
		}
		for _, b := range st.bodies {
			h.Write(b)
		}
	}
	for _, b := range preload {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
