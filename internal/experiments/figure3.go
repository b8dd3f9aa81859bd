package experiments

import (
	"errors"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adhoctx/internal/adhoc/locks"
	"adhoctx/internal/apps/broadleaf"
	"adhoctx/internal/apps/discourse"
	"adhoctx/internal/apps/spree"
	"adhoctx/internal/engine"
	"adhoctx/internal/obs"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
	"adhoctx/internal/webstack"
)

// Throughput is one Figure 3 bar: an API × mode × contention cell.
type Throughput struct {
	API       string // RMW, AA, CBC, PBC
	Mode      string // AHT or DBT
	Contended bool
	ReqPerSec float64
	Requests  int64
	Failures  int64
	// Stats explains the result: deadlocks and serialization failures are
	// the DBT variants' tax under contention.
	Stats engine.StatsSnapshot
}

// Figure3Config tunes the experiment.
type Figure3Config struct {
	// Duration is the measurement window per cell.
	Duration time.Duration
	// Clients is the closed-loop client count.
	Clients int
	// RTT is the application↔database round trip.
	RTT time.Duration
	// UseHTTP drives requests through the loopback HTTP layer, as the
	// paper's test clients do. Disable for allocation-free benches.
	UseHTTP bool
	// APIs restricts the experiment (nil = all four).
	APIs []string
	// Obs, when non-nil, receives metrics from every cell's engine and (in
	// HTTP mode) the webstack server's per-route series.
	Obs *obs.Registry
}

// DefaultFigure3Config returns the calibration used in EXPERIMENTS.md.
func DefaultFigure3Config() Figure3Config {
	return Figure3Config{
		Duration: time.Second,
		Clients:  8,
		RTT:      150 * time.Microsecond,
		UseHTTP:  true,
		APIs:     []string{"RMW", "AA", "CBC", "PBC"},
	}
}

// workload is one prepared cell: op(client, iter) issues one API request.
type workload struct {
	eng *engine.Engine
	op  func(client, iter int) error
}

// Workload is an exported handle over one prepared Figure 3 cell, used by
// the repository benchmarks to drive the same APIs under testing.B.
type Workload struct{ w *workload }

// NewWorkload prepares one (api, mode, contended) cell.
func NewWorkload(api, mode string, contended bool, cfg Figure3Config) (*Workload, error) {
	w, err := buildWorkload(api, mode, contended, cfg)
	if err != nil {
		return nil, err
	}
	return &Workload{w: w}, nil
}

// Do issues one API request on behalf of the given client.
func (w *Workload) Do(client, iter int) error { return w.w.op(client, iter) }

// Engine exposes the cell's engine (for stats).
func (w *Workload) Engine() *engine.Engine { return w.w.eng }

// Figure3 runs the coordination-granularity experiment and returns one row
// per (API, mode, contention) cell in the figure's order.
func Figure3(cfg Figure3Config) ([]Throughput, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	apis := cfg.APIs
	if len(apis) == 0 {
		apis = []string{"RMW", "AA", "CBC", "PBC"}
	}
	var out []Throughput
	for _, contended := range []bool{true, false} {
		for _, api := range apis {
			for _, mode := range []string{"AHT", "DBT"} {
				w, err := buildWorkload(api, mode, contended, cfg)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", api, mode, err)
				}
				row, err := runWorkload(api, mode, contended, w, cfg)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", api, mode, err)
				}
				out = append(out, row)
			}
		}
	}
	return out, nil
}

func buildWorkload(api, mode string, contended bool, cfg Figure3Config) (*workload, error) {
	var w *workload
	var err error
	switch api {
	case "RMW":
		w, err = buildRMW(mode, contended, cfg)
	case "AA":
		w, err = buildAA(mode, contended, cfg)
	case "CBC":
		w, err = buildCBC(mode, contended, cfg)
	case "PBC":
		w, err = buildPBC(mode, contended, cfg)
	default:
		return nil, fmt.Errorf("unknown API %q", api)
	}
	if err != nil {
		return nil, err
	}
	w.eng.WireObs(cfg.Obs)
	return w, nil
}

// buildRMW: Broadleaf check-out, MySQL, Serializable DBT (Table 6).
// Contended: every customer purchases the same SKU.
func buildRMW(mode string, contended bool, cfg Figure3Config) (*workload, error) {
	eng := engine.New(engine.Config{
		Dialect: engine.MySQL, Net: sim.Latency{RTT: cfg.RTT}, LockTimeout: 30 * time.Second,
	})
	app := broadleaf.New(eng, locks.NewMemLocker())
	if mode == "DBT" {
		app.Mode = broadleaf.DBT
	}
	skus := make([]int64, cfg.Clients)
	for i := range skus {
		id, err := app.CreateSKU(1 << 40)
		if err != nil {
			return nil, err
		}
		skus[i] = id
	}
	return &workload{eng: eng, op: func(client, _ int) error {
		sku := skus[0]
		if !contended {
			sku = skus[client]
		}
		return app.Checkout(sku, 1)
	}}, nil
}

// buildAA: Discourse like-post, PostgreSQL, Serializable DBT. Contended:
// users like different posts of seven contended topics.
func buildAA(mode string, contended bool, cfg Figure3Config) (*workload, error) {
	eng := engine.New(engine.Config{
		Dialect: engine.Postgres, Net: sim.Latency{RTT: cfg.RTT}, LockTimeout: 30 * time.Second,
	})
	app := discourse.New(eng, locks.NewMemLocker())
	if mode == "DBT" {
		app.Mode = discourse.DBT
	}
	// The paper's contended workload shares seven topics among its users;
	// its client population is large, so each topic sees several
	// concurrent likers. Scale the topic count to a quarter of the
	// clients (capped at the paper's seven) to keep that density.
	nTopics := cfg.Clients / 4
	if nTopics > 7 {
		nTopics = 7
	}
	if nTopics < 1 {
		nTopics = 1
	}
	if !contended {
		nTopics = cfg.Clients
	}
	// Seed with explicit, spread-out ids: in a production database the
	// uncontended rows are far apart in the keyspace; packing them onto
	// the same index pages would manufacture SSI conflicts that are not
	// part of this experiment.
	topics := make([]int64, nTopics)
	posts := make([][]int64, nTopics) // per topic, one post per client
	err := eng.Run(engine.IsolationDefault, func(t *engine.Txn) error {
		for i := range topics {
			topicID := int64(i+1) * 1_000_000
			if _, err := t.Insert("topics", map[string]storage.Value{
				"id": topicID, "max_post": int64(cfg.Clients), "answer": int64(0), "like_total": int64(0),
			}); err != nil {
				return err
			}
			topics[i] = topicID
			for c := 0; c < cfg.Clients; c++ {
				postID := topicID + int64(c+1)*1_000
				if _, err := t.Insert("posts", map[string]storage.Value{
					"id": postID, "topic_id": topicID, "number": int64(c + 1),
					"content": "seed", "ver": int64(1), "views": int64(0),
					"likes": int64(0), "img_id": int64(0),
				}); err != nil {
					return err
				}
				posts[i] = append(posts[i], postID)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &workload{eng: eng, op: func(client, _ int) error {
		ti := client % nTopics
		if !contended {
			ti = client
		}
		return app.LikePost(topics[ti], posts[ti][client])
	}}, nil
}

// buildCBC: Discourse create-post & toggle-answer, PostgreSQL, Repeatable
// Read DBT. Contended: user pairs share a topic — one creates posts, one
// accepts answers.
func buildCBC(mode string, contended bool, cfg Figure3Config) (*workload, error) {
	eng := engine.New(engine.Config{
		Dialect: engine.Postgres, Net: sim.Latency{RTT: cfg.RTT}, LockTimeout: 30 * time.Second,
	})
	app := discourse.New(eng, locks.NewMemLocker())
	if mode == "DBT" {
		app.Mode = discourse.DBT
	}
	// One topic per pair when contended, per client otherwise.
	nTopics := (cfg.Clients + 1) / 2
	if !contended {
		nTopics = cfg.Clients
	}
	topics := make([]int64, nTopics)
	seedPosts := make([]int64, nTopics)
	for i := range topics {
		t, err := app.CreateTopic()
		if err != nil {
			return nil, err
		}
		topics[i] = t
		pk, err := app.CreatePost(t, "seed", 0)
		if err != nil {
			return nil, err
		}
		seedPosts[i] = pk
	}
	return &workload{eng: eng, op: func(client, _ int) error {
		ti := client / 2
		if !contended {
			ti = client
		}
		ti %= nTopics
		if client%2 == 0 {
			_, err := app.CreatePost(topics[ti], "body", 0)
			return err
		}
		return app.ToggleAnswer(topics[ti], seedPosts[ti])
	}}, nil
}

// buildPBC: Spree add-payment, PostgreSQL, Serializable DBT. Contended:
// customers submit payment options for newly created (adjacent) orders;
// uncontended: for pre-created orders spread far apart in id space.
func buildPBC(mode string, contended bool, cfg Figure3Config) (*workload, error) {
	eng := engine.New(engine.Config{
		Dialect: engine.Postgres, Net: sim.Latency{RTT: cfg.RTT}, LockTimeout: 30 * time.Second,
	})
	app := spree.New(eng, sim.RealClock{}, locks.NewMemLocker())
	if mode == "DBT" {
		app.Mode = spree.DBT
	}
	if contended {
		// Each request pays for a brand-new order: ids are consecutive
		// across clients, so the probed payment-index regions adjoin.
		return &workload{eng: eng, op: func(_, _ int) error {
			order, err := app.CreateOrder(25)
			if err != nil {
				return err
			}
			return app.AddPayment(order, 25)
		}}, nil
	}
	// Pre-create orders with ids spread far apart per client.
	var mu sync.Mutex
	next := make([]int64, cfg.Clients)
	for c := range next {
		next[c] = int64(c+1) * 1_000_000
	}
	return &workload{eng: eng, op: func(client, _ int) error {
		mu.Lock()
		next[client]++
		id := next[client]
		mu.Unlock()
		err := eng.Run(engine.IsolationDefault, func(t *engine.Txn) error {
			_, err := t.Insert("orders", map[string]storage.Value{
				"id": id, "state": "cart", "total": 25.0,
			})
			return err
		})
		if err != nil {
			return err
		}
		return app.AddPayment(id, 25)
	}}, nil
}

// runWorkload drives a cell with closed-loop clients (over HTTP when
// configured) for the window and reports throughput.
func runWorkload(api, mode string, contended bool, w *workload, cfg Figure3Config) (Throughput, error) {
	invoke := w.op
	if cfg.UseHTTP {
		srv := webstack.NewServer()
		srv.WireObs(cfg.Obs)
		srv.Handle("/"+api, func(params url.Values) error {
			c, err := webstack.Int64(params, "client")
			if err != nil {
				return err
			}
			i, err := webstack.Int64(params, "iter")
			if err != nil {
				return err
			}
			return w.op(int(c), int(i))
		})
		if err := srv.Start(); err != nil {
			return Throughput{}, err
		}
		defer func() { _ = srv.Close() }()
		clients := make([]*webstack.Client, cfg.Clients)
		for i := range clients {
			clients[i] = srv.NewClient()
		}
		invoke = func(client, iter int) error {
			return clients[client].Call("/"+api, webstack.Params(
				"client", strconv.Itoa(client), "iter", strconv.Itoa(iter),
			))
		}
	}

	before := w.eng.Stats()
	var requests, failures atomic.Int64
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if err := invoke(c, i); err != nil {
					if errors.Is(err, webstack.ErrAPIConflict) || engine.IsRetryable(err) {
						failures.Add(1)
						continue
					}
					failures.Add(1)
					continue
				}
				requests.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return Throughput{
		API: api, Mode: mode, Contended: contended,
		ReqPerSec: float64(requests.Load()) / cfg.Duration.Seconds(),
		Requests:  requests.Load(),
		Failures:  failures.Load(),
		Stats:     w.eng.Stats().Sub(before),
	}, nil
}

// RenderFigure3 prints the cells in the figure's layout.
func RenderFigure3(rows []Throughput) string {
	s := "Figure 3: API throughputs using different coordination granularities (req/s)\n"
	for _, contended := range []bool{true, false} {
		label := "(a) with contention"
		if !contended {
			label = "(b) without contention"
		}
		s += label + "\n"
		s += fmt.Sprintf("  %-5s %10s %10s %8s   %s\n", "API", "AHT", "DBT", "AHT/DBT", "DBT deadlocks/serialization failures")
		byAPI := map[string]map[string]Throughput{}
		for _, r := range rows {
			if r.Contended != contended {
				continue
			}
			if byAPI[r.API] == nil {
				byAPI[r.API] = map[string]Throughput{}
			}
			byAPI[r.API][r.Mode] = r
		}
		for _, api := range []string{"RMW", "AA", "CBC", "PBC"} {
			cell, ok := byAPI[api]
			if !ok {
				continue
			}
			aht, dbt := cell["AHT"], cell["DBT"]
			ratio := 0.0
			if dbt.ReqPerSec > 0 {
				ratio = aht.ReqPerSec / dbt.ReqPerSec
			}
			s += fmt.Sprintf("  %-5s %10.1f %10.1f %7.2fx   %d/%d\n",
				api, aht.ReqPerSec, dbt.ReqPerSec, ratio,
				dbt.Stats.Deadlocks, dbt.Stats.SerializationErr)
		}
	}
	return s
}

// GeometricMeanImprovement computes the paper's "geometric mean of
// improvements" over the contended cells: geomean of (AHT/DBT − 1) is not
// well-defined for mixed signs, so — as the paper does — it is the geomean
// of the throughput ratios, reported as a percentage improvement.
func GeometricMeanImprovement(rows []Throughput) float64 {
	prod, n := 1.0, 0
	byAPI := map[string][2]float64{}
	for _, r := range rows {
		if !r.Contended {
			continue
		}
		pair := byAPI[r.API]
		if r.Mode == "AHT" {
			pair[0] = r.ReqPerSec
		} else {
			pair[1] = r.ReqPerSec
		}
		byAPI[r.API] = pair
	}
	for _, pair := range byAPI {
		if pair[0] > 0 && pair[1] > 0 {
			prod *= pair[0] / pair[1]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1.0/float64(n)) - 1.0
}
