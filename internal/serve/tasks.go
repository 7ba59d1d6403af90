package serve

import (
	"container/list"
	"sync"

	"klotski/internal/migration"
)

// Bounds of the manager's task cache. A task's size is estimated as
// bytesPerElement for every switch and circuit of its topology (the task
// and the evaluator adjacency its shape keeps retain about 120 B per
// circuit) plus its document's bytes, the key.
const (
	taskCacheEntries = 16
	taskCacheBytes   = 32 << 20
	bytesPerElement  = 128
)

// taskCache keeps the migration tasks the manager built, keyed by the exact
// bytes of the NPD document each was built from, and evicts the least
// recently used past either bound. A cached task is shared read-only by
// every job of its document, and with it the topology's shape: the
// evaluator adjacency and lifted partitions kept there are built once for
// all of them.
type taskCache struct {
	maxEntries int
	maxBytes   int64

	mu    sync.Mutex
	bytes int64
	lru   list.List // of *taskEntry, most recently used first
	byDoc map[string]*list.Element
}

type taskEntry struct {
	doc  string
	task *migration.Task
	size int64
}

func newTaskCache(maxEntries int, maxBytes int64) *taskCache {
	return &taskCache{maxEntries: maxEntries, maxBytes: maxBytes, byDoc: make(map[string]*list.Element)}
}

// taskSize estimates the bytes a cached task retains.
func taskSize(doc []byte, task *migration.Task) int64 {
	return int64(len(doc)) + bytesPerElement*int64(task.Topo.NumSwitches()+task.Topo.NumCircuits())
}

// get returns the task built from doc, or nil when none is cached.
func (c *taskCache) get(doc []byte) *migration.Task {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byDoc[string(doc)]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(e)
	return e.Value.(*taskEntry).task
}

// put caches task as the one built from doc and returns the task the
// cache keeps for doc: an earlier one stored by a concurrent miss wins, so
// every job of the document shares one. A task larger than the byte bound
// is returned uncached.
func (c *taskCache) put(doc []byte, task *migration.Task) *migration.Task {
	size := taskSize(doc, task)
	if size > c.maxBytes {
		return task
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byDoc[string(doc)]; ok {
		c.lru.MoveToFront(e)
		return e.Value.(*taskEntry).task
	}
	key := string(doc)
	c.byDoc[key] = c.lru.PushFront(&taskEntry{doc: key, task: task, size: size})
	c.bytes += size
	for c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes {
		old := c.lru.Remove(c.lru.Back()).(*taskEntry)
		delete(c.byDoc, old.doc)
		c.bytes -= old.size
	}
	return task
}
