package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"klotski/internal/npd"
	"klotski/internal/obs"
)

// namedNPD is testNPD under another name: the same fabric, distinct bytes.
func namedNPD(name string) []byte {
	return []byte(strings.Replace(testNPD, `"serve-test"`, fmt.Sprintf("%q", name), 1))
}

// compactNPD is doc without insignificant whitespace: the bytes a journaled
// request carries, so a recovered job keys the cache as its submission did.
func compactNPD(t *testing.T, doc []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runRequest submits req and waits for the job to end.
func runRequest(t *testing.T, m *Manager, req Request) Status {
	t.Helper()
	j, err := m.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return waitTerminal(t, j)
}

// taskCounts reads serve.task_builds and serve.task_cache_hits.
func taskCounts(reg *obs.Registry) (builds, hits int64) {
	c := reg.Snapshot().Counters
	return c[obs.MetricServeTaskBuilds], c[obs.MetricServeTaskCacheHits]
}

func checkTaskCounts(t *testing.T, what string, reg *obs.Registry, builds, hits int64) {
	t.Helper()
	if b, h := taskCounts(reg); b != builds || h != hits {
		t.Fatalf("%s: %d builds and %d cache hits, want %d and %d", what, b, h, builds, hits)
	}
}

// TestTaskCacheBounds holds the manager's task cache to its bounds: past the
// count bound the least recently used document is evicted and rebuilt on
// its next job, past the byte bound likewise, a task over the byte bound is
// never cached, a failed build is not cached, and a job recovered after a
// restart goes through the cache.
func TestTaskCacheBounds(t *testing.T) {
	open := func(t *testing.T, dir string) (*Manager, *obs.Registry) {
		reg := obs.NewRegistry()
		m := newManager(t, dir, func(c *Config) { c.Recorder = obs.NewRecorder(reg) })
		t.Cleanup(m.Close)
		return m, reg
	}
	run := func(t *testing.T, m *Manager, doc []byte) {
		t.Helper()
		if st := runRequest(t, m, Request{NPD: doc}); st.State != StateDone {
			t.Fatalf("job finished %s (%s)", st.State, st.Detail)
		}
	}
	docs := [][]byte{namedNPD("lru-0"), namedNPD("lru-1"), namedNPD("lru-2")}

	t.Run("count", func(t *testing.T) {
		m, reg := open(t, t.TempDir())
		m.tasks = newTaskCache(2, taskCacheBytes)
		for _, d := range docs {
			run(t, m, d)
		}
		checkTaskCounts(t, "three documents", reg, 3, 0)
		run(t, m, docs[1]) // a hit, and now the most recently used
		checkTaskCounts(t, "second again", reg, 3, 1)
		run(t, m, docs[0]) // evicted by the third; evicts the third
		checkTaskCounts(t, "first again", reg, 4, 1)
		run(t, m, docs[1])
		run(t, m, docs[2])
		checkTaskCounts(t, "second and third again", reg, 5, 2)
		if n := m.tasks.lru.Len(); n != 2 {
			t.Fatalf("%d tasks cached, bound 2", n)
		}
	})

	size := func(t *testing.T, doc []byte) int64 {
		d, err := npd.Decode(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		task, _, err := d.Task()
		if err != nil {
			t.Fatal(err)
		}
		return taskSize(doc, task)
	}

	t.Run("bytes", func(t *testing.T) {
		m, reg := open(t, t.TempDir())
		m.tasks = newTaskCache(taskCacheEntries, size(t, docs[1])+size(t, docs[2]))
		for _, d := range docs {
			run(t, m, d)
		}
		run(t, m, docs[0])
		checkTaskCounts(t, "first after the third", reg, 4, 0)
		if m.tasks.lru.Len() != 2 || m.tasks.bytes > m.tasks.maxBytes {
			t.Fatalf("%d tasks of %d bytes cached, bound %d bytes", m.tasks.lru.Len(), m.tasks.bytes, m.tasks.maxBytes)
		}
	})

	t.Run("oversize", func(t *testing.T) {
		m, reg := open(t, t.TempDir())
		big := []byte(strings.Replace(string(docs[0]), `"pods": 2`, `"pods": 3`, 1))
		m.tasks = newTaskCache(taskCacheEntries, size(t, big)-1)
		run(t, m, docs[0])
		run(t, m, big)
		run(t, m, big)
		checkTaskCounts(t, "a document over the byte bound", reg, 3, 0)
		run(t, m, docs[0]) // the oversized task evicted nothing
		checkTaskCounts(t, "the cached document again", reg, 3, 1)
		if n := m.tasks.lru.Len(); n != 1 {
			t.Fatalf("%d tasks cached, want the one under the byte bound", n)
		}
	})

	t.Run("failed build", func(t *testing.T) {
		m, reg := open(t, t.TempDir())
		// A port cap below the SSWs' degree: the document decodes, so
		// Submit accepts it, and its scenario build fails.
		var doc map[string]any
		if err := json.Unmarshal([]byte(testNPD), &doc); err != nil {
			t.Fatal(err)
		}
		doc["hardware"] = []map[string]any{{"role": "SSW", "ports": 1}}
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		first := runRequest(t, m, Request{NPD: bad})
		second := runRequest(t, m, Request{NPD: bad})
		if first.State != StateFailed || !strings.HasPrefix(first.Detail, "building scenario: ") {
			t.Fatalf("job finished %s (%s), want a failed scenario build", first.State, first.Detail)
		}
		if second.State != first.State || second.Detail != first.Detail {
			t.Fatalf("second job finished %s (%s), the first %s (%s)", second.State, second.Detail, first.State, first.Detail)
		}
		checkTaskCounts(t, "two failed builds", reg, 2, 0)
		if n := m.tasks.lru.Len(); n != 0 {
			t.Fatalf("%d tasks cached after failed builds", n)
		}
	})

	t.Run("recovered", func(t *testing.T) {
		dir := t.TempDir()
		doc := compactNPD(t, []byte(testNPD))
		legged := make(chan struct{})
		var once sync.Once
		m := newManager(t, dir, func(c *Config) {
			c.LegHook = func(_ string, leg int) error {
				if leg >= 1 {
					once.Do(func() { close(legged) })
					time.Sleep(5 * time.Millisecond)
				}
				return nil
			}
		})
		j, err := m.Submit(Request{NPD: doc})
		if err != nil {
			t.Fatal(err)
		}
		<-legged
		m.Close()
		if st := j.Status(); st.State.Terminal() {
			t.Fatalf("drained job reached %s; it must stay in flight", st.State)
		}

		m2, reg := open(t, dir)
		j2, err := m2.Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j2); st.State != StateDone || !st.Recovered {
			t.Fatalf("recovered job finished %s (%s), recovered %v", st.State, st.Detail, st.Recovered)
		}
		checkTaskCounts(t, "recovered job", reg, 1, 0)
		run(t, m2, doc)
		checkTaskCounts(t, "submission after recovery", reg, 1, 1)
	})
}

// TestSharedTasksInvisible runs concurrent A* and DP jobs of two fabrics on
// cached tasks and requires every plan document to equal, byte for byte,
// the plan of the same request whose document differs only in whitespace:
// a distinct cache key, so a task and a fabric shape of its own. Each
// distinct document is built once.
func TestSharedTasksInvisible(t *testing.T) {
	reg := obs.NewRegistry()
	m := newManager(t, t.TempDir(), func(c *Config) {
		c.Recorder = obs.NewRecorder(reg)
		c.LegStates = 1 << 20
	})
	defer m.Close()

	other := strings.Replace(strings.Replace(testNPD, `"serve-test"`, `"serve-test-3pods"`, 1), `"pods": 2`, `"pods": 3`, 1)
	var docs [][]byte // per fabric: as written, then compacted
	for _, d := range []string{testNPD, other} {
		docs = append(docs, []byte(d), compactNPD(t, []byte(d)))
	}
	planners := []string{"astar", "dp"}

	// One job per document builds its task.
	for _, d := range docs {
		if st := runRequest(t, m, Request{NPD: d}); st.State != StateDone {
			t.Fatalf("job finished %s (%s)", st.State, st.Detail)
		}
	}
	checkTaskCounts(t, "one job per document", reg, int64(len(docs)), 0)

	const copies = 3
	type result struct {
		doc, planner int
		plan         []byte
		err          error
	}
	results := make(chan result, len(docs)*len(planners)*copies)
	var wg sync.WaitGroup
	for c := 0; c < copies; c++ {
		for di, d := range docs {
			for pi, p := range planners {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := result{doc: di, planner: pi}
					defer func() { results <- r }()
					j, err := m.Submit(Request{NPD: d, Planner: p})
					if err != nil {
						r.err = err
						return
					}
					ch, _ := j.Subscribe()
					for range ch { // closed at the terminal state
					}
					if st := j.Status(); st.State != StateDone {
						r.err = fmt.Errorf("job %s finished %s (%s)", st.ID, st.State, st.Detail)
						return
					}
					r.plan, r.err = j.Plan()
				}()
			}
		}
	}
	wg.Wait()
	close(results)
	checkTaskCounts(t, "concurrent jobs", reg, int64(len(docs)), int64(cap(results)))

	// want[fabric][planner]: the first plan seen of the kind.
	want := make([][][]byte, len(docs)/2)
	for f := range want {
		want[f] = make([][]byte, len(planners))
	}
	for r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		f := r.doc / 2
		if want[f][r.planner] == nil {
			want[f][r.planner] = r.plan
		} else if !bytes.Equal(r.plan, want[f][r.planner]) {
			t.Errorf("fabric %d, %s: plan of document %d differs from another job of the fabric", f, planners[r.planner], r.doc)
		}
	}
	if bytes.Equal(want[0][0], want[1][0]) {
		t.Errorf("the two fabrics planned identical documents; the test compares nothing")
	}
}
