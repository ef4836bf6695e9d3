package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/sweep"
)

// serve_mix: the placement service as its callers use it. nproc
// keep-alive clients, each waiting for its reply (a closed loop), call
// serve.New(...).Handler() behind an in-process loopback httptest.Server.
//
// Each client's stream is cut into blocks of blockLen requests holding
// exactly 14 distinct /v1/place misses, 3 /v1/eval misses that score a
// seeded perturbation of one of the block's placements, and 3 exact
// repeats of one of the block's place requests (cache hits; the FIFO
// cache holds far more than the 20 requests two blocks span). The place
// misses are stratified: every block has one fra request per 25-wide
// k band over 50–300, two tour and two lloyd requests, and the
// field/Rc pairing rotates so every 8 blocks cover each combination.
// The seed moves k inside its band, the forest and terrain seeds, the
// per-request seeds and the order within a block, so throughput barely
// depends on it. Hits sit below the median and evals below p30 by
// construction, so p50 and p90 both fall inside the spread-out place
// class, away from a class boundary. cwd is left out: its 1.3 s
// requests would set the tail alone.

const blockLen = 20

const (
	classPlace = iota
	classEval
	classHit
)

var classNames = [...]string{"place_miss", "eval_miss", "hit"}

type placeSlot struct {
	strategy string
	kLo, kHi int
}

var placeSlots = [...]placeSlot{
	{"fra", 50, 75}, {"fra", 75, 100}, {"fra", 100, 125}, {"fra", 125, 150}, {"fra", 150, 175},
	{"fra", 175, 200}, {"fra", 200, 225}, {"fra", 225, 250}, {"fra", 250, 275}, {"fra", 275, 300},
	{"tour", 50, 175}, {"tour", 175, 300},
	{"lloyd", 100, 200}, {"lloyd", 200, 300},
}

var fieldKinds = [...]string{"forest", "peaks", "terrain", "ridge"}

// serveConfig sizes the workload; tiny shrinks it for self-tests.
type serveConfig struct {
	clients    int
	gridN      int
	deltaN     int
	kScale     float64
	warmBlocks int
	blocks     int // stream length per client, in blocks
}

func newServeConfig(d time.Duration, tiny bool) serveConfig {
	c := serveConfig{clients: runtime.NumCPU(), gridN: 100, deltaN: 100, kScale: 1, warmBlocks: 1}
	if tiny {
		c.gridN, c.deltaN, c.kScale = 30, 30, 0.1
	}
	// Far more blocks than any client can finish: a client that ran out
	// would end the phase early, which check reports as a failure.
	c.blocks = 8 + int(d.Seconds()*12/c.kScale)
	return c
}

// serveItem is one request of a client's stream.
type serveItem struct {
	Class    int
	Ref      int // eval and hit: stream index of the referenced place item
	Field    sweep.FieldSpec
	Rc       float64
	Body     []byte // place and hit: the exact request body
	PertSeed int64  // eval: seed of the node perturbation
	Rescore  bool   // place: re-score the response through core.Evaluate
	// NeedNodes marks a place item whose node lists an eval or the
	// re-score reads; other place responses are decoded without them.
	NeedNodes bool
}

// serveStream generates one client's request stream from the seed.
func serveStream(seed int64, client int, cfg serveConfig, blocks int) []serveItem {
	rng := rand.New(rand.NewSource(int64(mix(seed, uint64(client)))))
	// Request seeds are unique per client stream, so every place request
	// has its own cache key.
	base := int64(mix(seed, 1<<20+uint64(client))>>24) << 20
	items := make([]serveItem, 0, blocks*blockLen)
	type entry struct{ class, slot int }
	for b := 0; b < blocks; b++ {
		rot := b + 3*client
		var places [len(placeSlots)]serveItem
		for i, ps := range placeSlots {
			kind := fieldKinds[(i+rot)%len(fieldKinds)]
			rc := [2]float64{10, 20}[(i+rot/4)%2]
			k := max(4, int(float64(ps.kLo+rng.Intn(ps.kHi-ps.kLo))*cfg.kScale))
			fs := sweep.FieldSpec{Kind: kind}
			if kind == "forest" || kind == "terrain" {
				fs.Seed = 1 + rng.Int63n(1000)
			}
			req := serve.PlaceRequest{
				Field: &fs, K: k, Rc: rc, GridN: cfg.gridN, DeltaN: cfg.deltaN,
				Seed: base + int64(b*blockLen+i) + 1, Strategy: ps.strategy,
			}
			body, err := json.Marshal(req)
			if err != nil {
				panic(err) // a fixed struct of plain fields always marshals
			}
			rescore := rng.Intn(24) == 0
			places[i] = serveItem{
				Class: classPlace, Field: fs, Rc: rc,
				Body: body, Rescore: rescore, NeedNodes: rescore,
			}
		}
		seq := make([]entry, 0, blockLen)
		for _, i := range rng.Perm(len(placeSlots)) {
			seq = append(seq, entry{classPlace, i})
		}
		// Each eval and hit goes somewhere after the place it refers to.
		for d := 0; d < blockLen-len(placeSlots); d++ {
			class := classEval
			if d >= 3 {
				class = classHit
			}
			ref := rng.Intn(len(placeSlots))
			pos := slices.Index(seq, entry{classPlace, ref})
			seq = slices.Insert(seq, pos+1+rng.Intn(len(seq)-pos), entry{class, ref})
		}
		start := len(items)
		var at [len(placeSlots)]int
		for j, e := range seq {
			if e.class == classPlace {
				at[e.slot] = start + j
			}
		}
		for _, e := range seq {
			p := places[e.slot]
			switch e.class {
			case classPlace:
				items = append(items, p)
			case classEval:
				items[at[e.slot]].NeedNodes = true
				items = append(items, serveItem{Class: classEval, Ref: at[e.slot], PertSeed: rng.Int63()})
			case classHit:
				items = append(items, serveItem{Class: classHit, Ref: at[e.slot], Body: p.Body})
			}
		}
	}
	return items
}

// serveInputs is the generated input set: one stream per client plus a
// fixed warm-up stream, the same for every seed.
type serveInputs struct {
	cfg     serveConfig
	streams [][]serveItem
	warm    [][]serveItem
}

// warmSeed seeds the fixed warm-up stream; its client indices are offset
// so no warm-up request can share a cache key with a timed one.
const warmSeed = 0x5e7

func genServe(seed int64, d time.Duration, tiny bool) any {
	cfg := newServeConfig(d, tiny)
	in := &serveInputs{cfg: cfg}
	for c := 0; c < cfg.clients; c++ {
		in.streams = append(in.streams, serveStream(seed, c, cfg, cfg.blocks))
		in.warm = append(in.warm, serveStream(warmSeed, 100+c, cfg, cfg.warmBlocks))
	}
	return in
}

// serveInstance is one server under test and its loopback listener.
type serveInstance struct {
	srv  *serve.Server
	ts   *httptest.Server
	reg  *obs.Registry
	http *http.Client
}

func newServeInstance(clients int, reg *obs.Registry) *serveInstance {
	srv := serve.New(serve.Config{Metrics: reg})
	return &serveInstance{
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		reg: reg,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
}

func (si *serveInstance) close() {
	si.http.CloseIdleConnections()
	si.ts.Close()
	si.srv.Drain()
}

// serveRun is one set-up serve_mix instance.
type serveRun struct {
	in      *serveInputs
	inst    *serveInstance
	clients []*serveClient
	// hitCheck is the traced phase's verdict on serve_cache_hits_total.
	hitCheck string
}

func setupServe(inputs any) (runner, error) {
	in := inputs.(*serveInputs)
	s := &serveRun{in: in, inst: newServeInstance(in.cfg.clients, nil)}
	for c, stream := range in.streams {
		s.clients = append(s.clients, &serveClient{id: c, items: stream, cfg: in.cfg})
	}
	if _, err := s.warmUp(s.inst); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmUp sends the fixed warm-up stream through inst, one goroutine per
// client as in the timed phase, and returns how many hits it sent.
func (s *serveRun) warmUp(inst *serveInstance) (int, error) {
	var (
		wg   sync.WaitGroup
		errs = make([]error, len(s.in.warm))
		hits = 0
	)
	for c, stream := range s.in.warm {
		wc := &serveClient{id: 100 + c, items: stream, cfg: s.in.cfg}
		for _, it := range stream {
			if it.Class == classHit {
				hits++
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc.loop(inst, time.Time{}, nil)
			if wc.failed > 0 {
				errs[c] = fmt.Errorf("warm-up client %d: %d failed requests: %v", c, wc.failed, wc.failures)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return hits, nil
}

func (s *serveRun) phase(d time.Duration, tr *tracer) (*phaseResult, error) {
	inst, warmHits := s.inst, 0
	if tr != nil {
		// The traced half runs on its own server with a registry attached,
		// warmed up the same way; clients resume at a block boundary so
		// every hit refers to a request this server has seen.
		inst = newServeInstance(s.in.cfg.clients, obs.NewRegistry())
		defer inst.close()
		var err error
		if warmHits, err = s.warmUp(inst); err != nil {
			return nil, err
		}
		for _, c := range s.clients {
			c.next = (c.next + blockLen - 1) / blockLen * blockLen
			c.startPhase()
		}
		runtime.GC()
	} else {
		for _, c := range s.clients {
			c.startPhase()
		}
	}
	alloc0 := totalAlloc()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(inst, deadline, tr)
		}()
	}
	wg.Wait()
	res := &phaseResult{Wall: time.Since(start), AllocBytes: totalAlloc() - alloc0}
	var (
		deltaSum float64
		deltaN   int
		counts   [3]int
	)
	for _, c := range s.clients {
		res.Ops += c.done
		res.Attempted += c.attempted
		res.Failed += c.failed
		res.LatMs = append(res.LatMs, c.lat...)
		res.HeapGoals = append(res.HeapGoals, c.mem.goals...)
		deltaSum += c.deltaSum
		deltaN += c.deltaN
		for k := range counts {
			counts[k] += c.classDone[k]
		}
		for _, f := range c.failures {
			res.Notes = append(res.Notes, fmt.Sprintf("client %d: %s", c.id, f))
		}
	}
	if deltaN > 0 {
		res.Delta = deltaSum / float64(deltaN)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("requests: %d place misses, %d eval misses, %d hits; δ over %d place responses of complete blocks",
		counts[classPlace], counts[classEval], counts[classHit], deltaN))
	if tr != nil {
		res.Layers = s.layers(tr, inst.reg)
		designed := warmHits
		for _, c := range s.clients {
			designed += c.tracedHits
		}
		if got := inst.reg.Counter("serve_cache_hits_total").Value(); got != int64(designed) {
			s.hitCheck = fmt.Sprintf("serve_cache_hits_total = %d, designed hit count %d", got, designed)
		}
	}
	return res, nil
}

// layers reads the traced half's per-layer numbers from the spans, the
// clients' counts and the server's registry.
func (s *serveRun) layers(tr *tracer, reg *obs.Registry) map[string]float64 {
	sum := tr.summary()
	L := map[string]float64{}
	var reqN int
	var selfMs float64
	for _, cn := range classNames {
		rs := sum["serve.request."+cn]
		L["serve.request_ms."+cn] = rs.Mean()
		if rs != nil {
			reqN += rs.Count
			selfMs += rs.SelfMs
		}
	}
	if reqN > 0 {
		L["serve.self_ms"] = selfMs / float64(reqN)
	}
	L["serve.decode_ms"] = sum["serve.decode"].Mean()
	L["serve.encode_ms"] = sum["serve.encode"].Mean()
	L["field.build_ms"] = sum["field.build"].Mean()
	L["core.evaluate_ms"] = sum["core.evaluate"].Mean()
	for _, name := range []string{"fra", "tour", "lloyd"} {
		L["strategy.place_ms."+name] = sum["strategy.place."+name].Mean()
	}
	var respBytes, responses, shortfall int
	for _, c := range s.clients {
		respBytes += c.respBytes
		responses += c.done
		shortfall += c.shortfall
	}
	if responses > 0 {
		L["serve.response_kb"] = float64(respBytes) / 1024 / float64(responses)
	}
	hits := reg.Counter("serve_cache_hits_total").Value()
	misses := reg.Counter("serve_cache_misses_total").Value()
	if hits+misses > 0 {
		L["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	for _, route := range []string{"/v1/place", "/v1/eval"} {
		L["serve.rejected_429"] += float64(reg.Counter(fmt.Sprintf(`serve_requests_total{route=%q,code="429"}`, route)).Value())
	}
	fraMetrics(L, reg)
	L["core.fra_shortfall"] = float64(shortfall)
	return L
}

// fraMetrics reads FRA's refinement counters as per-run means.
func fraMetrics(L map[string]float64, reg *obs.Registry) {
	runs := float64(reg.Counter("fra_runs_total").Value())
	if runs == 0 {
		return
	}
	refined := float64(reg.Counter("fra_refined_total").Value())
	attempts := float64(reg.Counter("fra_refine_attempts_total").Value())
	L["core.fra_refined"] = refined / runs
	L["core.fra_relays"] = float64(reg.Counter("fra_relays_total").Value()) / runs
	L["core.fra_attempts"] = attempts / runs
	L["core.fra_banned"] = float64(reg.Counter("fra_banned_total").Value()) / runs
	if attempts > 0 {
		L["core.fra_accept_ratio"] = refined / attempts
	}
}

func (s *serveRun) check() []string {
	var bad []string
	for _, c := range s.clients {
		if c.exhausted {
			bad = append(bad, fmt.Sprintf("client %d ran out of its generated stream before the deadline", c.id))
		}
		for _, rs := range c.rescore {
			if msg := rs.check(s.in.cfg.deltaN); msg != "" {
				bad = append(bad, fmt.Sprintf("client %d: %s", c.id, msg))
			}
		}
	}
	if s.hitCheck != "" {
		bad = append(bad, s.hitCheck)
	}
	return bad
}

func (s *serveRun) close() { s.inst.close() }

// rescoreSample is a place response kept for re-scoring after the phase.
type rescoreSample struct {
	field   sweep.FieldSpec
	rc      float64
	nodes   []serve.Point
	anchors []serve.Point
	delta   float64
}

// check re-scores the placement through core.Evaluate; δ must match the
// response bit for bit.
func (rs rescoreSample) check(deltaN int) string {
	dyn, err := rs.field.Build()
	if err != nil {
		return fmt.Sprintf("re-score: build %s: %v", rs.field.Kind, err)
	}
	ev, err := core.Evaluate(field.Slice(dyn, 0), core.Placement{Nodes: toVecs(rs.nodes), Anchors: toVecs(rs.anchors)}, rs.rc, deltaN)
	if err != nil {
		return fmt.Sprintf("re-score: %v", err)
	}
	if math.Float64bits(ev.Delta) != math.Float64bits(rs.delta) {
		return fmt.Sprintf("re-scored δ %v differs from the response's %v", ev.Delta, rs.delta)
	}
	return ""
}

func toVecs(ps []serve.Point) []geom.Vec2 {
	out := make([]geom.Vec2, len(ps))
	for i, p := range ps {
		out[i] = geom.Vec2{X: p.X, Y: p.Y}
	}
	return out
}

// serveClient is one closed-loop client: it sends its stream's next
// request only after the previous reply has been read.
type serveClient struct {
	id    int
	cfg   serveConfig
	items []serveItem
	next  int
	mem   *memSampler

	// Responses of the current block's place requests, by block position.
	resp  [blockLen][]byte
	nodes [blockLen][]serve.Point

	// Per-phase results.
	lat        []float64
	done       int
	attempted  int
	failed     int
	failures   []string
	classDone  [3]int
	deltaSum   float64 // δ of place responses in complete blocks
	deltaN     int
	blockDelta float64
	blockN     int
	blockOK    bool
	respBytes  int
	shortfall  int
	tracedHits int
	exhausted  bool
	rescore    []rescoreSample
}

func (c *serveClient) startPhase() {
	c.mem = newMemSampler()
	c.lat, c.done, c.attempted, c.failed, c.failures = nil, 0, 0, 0, nil
	c.classDone = [3]int{}
	c.deltaSum, c.deltaN, c.respBytes, c.shortfall, c.tracedHits = 0, 0, 0, 0, 0
	c.blockOK = false
}

// loop runs the client's stream until the deadline (zero: to the end).
func (c *serveClient) loop(inst *serveInstance, deadline time.Time, tr *tracer) {
	if c.mem == nil {
		c.startPhase()
	}
	for c.next < len(c.items) {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return
		}
		c.do(inst, c.next, tr)
		c.next++
	}
	if !deadline.IsZero() {
		c.exhausted = true
	}
}

// placeSummary is the part of every place response the checks read.
type placeSummary struct {
	Strategy string  `json:"strategy"`
	K        int     `json:"k"`
	Delta    float64 `json:"delta"`
	Refined  int     `json:"refined"`
	Relays   int     `json:"relays"`
}

// placeOut adds the node lists, decoded only for the place responses an
// eval or the re-score reads, so the client allocates little in the loop.
type placeOut struct {
	placeSummary
	Nodes   []serve.Point `json:"nodes"`
	Anchors []serve.Point `json:"anchors"`
}

func (c *serveClient) fail(idx int, format string, v ...any) {
	c.failed++
	c.blockOK = false
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf("request %d: ", idx)+fmt.Sprintf(format, v...))
	}
}

// do sends request idx, checks its reply and, traced, replays it through
// the layers the handler calls.
func (c *serveClient) do(inst *serveInstance, idx int, tr *tracer) {
	it := &c.items[idx]
	pos := idx % blockLen
	if pos == 0 {
		c.resp, c.nodes = [blockLen][]byte{}, [blockLen][]serve.Point{}
		c.blockDelta, c.blockN, c.blockOK = 0, 0, true
	}
	c.attempted++
	body, path := it.Body, "/v1/place"
	if it.Class == classEval {
		path = "/v1/eval"
		ref := &c.items[it.Ref]
		nodes := c.nodes[it.Ref%blockLen]
		if nodes == nil {
			c.fail(idx, "eval refers to place request %d, which has no response", it.Ref)
			return
		}
		body = evalBody(ref, nodes, it.PertSeed, c.cfg.deltaN)
	}
	t0 := time.Now()
	out, status, err := post(inst, path, body)
	t1 := time.Now()
	if err != nil || status != http.StatusOK {
		c.fail(idx, "%s: status %d, err %v: %.200s", path, status, err, out)
		return
	}
	c.lat = append(c.lat, float64(t1.Sub(t0).Nanoseconds())/1e6)
	c.done++
	c.classDone[it.Class]++
	c.respBytes += len(out)
	switch it.Class {
	case classPlace:
		// Unmarshal checks the whole response is valid JSON before it
		// decodes the fields it was asked for.
		var po placeOut
		var err error
		if it.NeedNodes {
			err = json.Unmarshal(out, &po)
		} else {
			err = json.Unmarshal(out, &po.placeSummary)
		}
		if err != nil || po.K == 0 || (it.NeedNodes && len(po.Nodes) == 0) {
			c.fail(idx, "place response does not decode: %v", err)
			return
		}
		c.resp[pos], c.nodes[pos] = out, po.Nodes
		c.blockDelta += po.Delta
		c.blockN++
		if po.Strategy == "fra" && po.Refined+po.Relays < po.K {
			c.shortfall++
		}
		if it.Rescore {
			c.rescore = append(c.rescore, rescoreSample{it.Field, it.Rc, po.Nodes, po.Anchors, po.Delta})
		}
	case classEval:
		var eo serve.EvalResponse
		if err := json.Unmarshal(out, &eo); err != nil || eo.K == 0 {
			c.fail(idx, "eval response does not decode: %v", err)
			return
		}
	case classHit:
		if tr != nil {
			c.tracedHits++
		}
		if !bytes.Equal(out, c.resp[it.Ref%blockLen]) {
			c.fail(idx, "repeat of request %d is not byte-identical to its first response", it.Ref)
			return
		}
	}
	if pos == blockLen-1 && c.blockOK {
		c.deltaSum += c.blockDelta
		c.deltaN += c.blockN
	}
	c.mem.sample()
	if tr != nil {
		if msg := c.replay(tr, idx, it, body, out, t0, t1); msg != "" {
			c.fail(idx, "%s", msg)
		}
	}
}

func post(inst *serveInstance, path string, body []byte) ([]byte, int, error) {
	resp, err := inst.http.Post(inst.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// evalBody builds the /v1/eval request scoring a seeded perturbation
// (σ = 1 m, clamped to the region) of an earlier placement.
func evalBody(ref *serveItem, nodes []serve.Point, seed int64, deltaN int) []byte {
	rng := rand.New(rand.NewSource(seed))
	moved := make([]serve.Point, len(nodes))
	for i, p := range nodes {
		moved[i] = serve.Point{
			X: math.Min(100, math.Max(0, p.X+rng.NormFloat64())),
			Y: math.Min(100, math.Max(0, p.Y+rng.NormFloat64())),
		}
	}
	fs := ref.Field
	body, err := json.Marshal(serve.EvalRequest{Field: &fs, Nodes: moved, Rc: ref.Rc, DeltaN: deltaN})
	if err != nil {
		panic(err) // finite points and plain fields always marshal
	}
	return body
}

// replay re-runs a traced request through the public layer calls in the
// handler's order — decode, field build, placement, δ evaluation,
// encode — under the request's trace id, and checks that the replayed
// encoding is the response the server sent.
func (c *serveClient) replay(tr *tracer, idx int, it *serveItem, body, out []byte, t0, t1 time.Time) string {
	trace := fmt.Sprintf("req/%d/%d", c.id, idx)
	req := tr.add(trace, 0, "serve.request."+classNames[it.Class], t0, t1)
	step := func(name string, start time.Time) time.Time {
		now := time.Now()
		tr.add(trace, req, name, start, now)
		return now
	}
	t := time.Now()
	if it.Class == classEval {
		var er serve.EvalRequest
		if err := decodeStrict(body, &er); err != nil {
			return err.Error()
		}
		t = step("serve.decode", t)
		dyn, err := er.Field.Build()
		if err != nil {
			return err.Error()
		}
		ref := field.Slice(dyn, 0)
		t = step("field.build", t)
		corners := ref.Bounds().Corners()
		p := core.Placement{Nodes: toVecs(er.Nodes), Anchors: corners[:]}
		ev, err := core.Evaluate(ref, p, er.Rc, er.DeltaN)
		if err != nil {
			return err.Error()
		}
		t = step("core.evaluate", t)
		enc := encodeIndent(serve.EvalResponse{
			K: len(er.Nodes), Rc: er.Rc, Delta: ev.Delta, Connected: ev.Connected,
			Components: ev.Components, MeanDegree: ev.MeanDegree,
		})
		step("serve.encode", t)
		if !bytes.Equal(enc, out) {
			return "replayed eval response differs from the served one"
		}
		return ""
	}
	var pr serve.PlaceRequest
	if err := decodeStrict(body, &pr); err != nil {
		return err.Error()
	}
	t = step("serve.decode", t)
	dyn, err := pr.Field.Build()
	if err != nil {
		return err.Error()
	}
	ref := field.Slice(dyn, 0)
	t = step("field.build", t)
	if it.Class == classHit {
		return "" // a hit is answered from the cache after the field is built
	}
	placer, err := strategy.LookupPlacement(pr.Strategy)
	if err != nil {
		return err.Error()
	}
	p, err := placer.Place(ref, strategy.PlaceOptions{K: pr.K, Rc: pr.Rc, GridN: pr.GridN, Seed: pr.Seed})
	if err != nil {
		return err.Error()
	}
	t = step("strategy.place."+pr.Strategy, t)
	ev, err := core.Evaluate(ref, p, pr.Rc, pr.DeltaN)
	if err != nil {
		return err.Error()
	}
	t = step("core.evaluate", t)
	enc := encodeIndent(serve.PlaceResponse{
		Strategy: pr.Strategy, K: pr.K, Rc: pr.Rc,
		Delta: ev.Delta, Refined: p.Refined, Relays: p.Relays,
		Connected: ev.Connected, Components: ev.Components, MeanDegree: ev.MeanDegree,
		Nodes: points(p.Nodes), Anchors: points(p.Anchors),
		Summary: serve.PlacementSummary(pr.Strategy, pr.K, p, ev),
	})
	step("serve.encode", t)
	if !bytes.Equal(enc, out) {
		return "replayed place response differs from the served one"
	}
	return ""
}

// decodeStrict decodes a request body the way the handler does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encodeIndent encodes a response the way the handler does.
func encodeIndent(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err) // response structs of finite numbers always encode
	}
	return b.Bytes()
}

func points(vs []geom.Vec2) []serve.Point {
	out := make([]serve.Point, len(vs))
	for i, v := range vs {
		out[i] = serve.Point{X: v.X, Y: v.Y}
	}
	return out
}
