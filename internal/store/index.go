package store

import "sync"

// The key→record index, sharded so concurrent readers (a sweep
// re-reading its cells while the job manager writes back finished
// jobs) never contend on one lock. Keys are content addresses —
// hex SHA-256, uniformly distributed — so a cheap FNV-1a over the first
// bytes spreads them evenly; the shard count is a power of two to make
// the modulo a mask.
const indexShards = 64

// recordRef locates one record: the id of the segment holding it, the
// byte offset of its frame, and the frame length.
type recordRef struct {
	seg    int64 // segment id
	off    int64
	length int64
}

type indexShard struct {
	mu sync.RWMutex
	m  map[string]recordRef
}

type shardedIndex struct {
	shards [indexShards]indexShard
}

func newShardedIndex() *shardedIndex {
	x := &shardedIndex{}
	for i := range x.shards {
		x.shards[i].m = make(map[string]recordRef)
	}
	return x
}

// shardFor hashes key to its shard (FNV-1a, masked).
func (x *shardedIndex) shardFor(key string) *indexShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &x.shards[h&(indexShards-1)]
}

func (x *shardedIndex) get(key string) (recordRef, bool) {
	sh := x.shardFor(key)
	sh.mu.RLock()
	ref, ok := sh.m[key]
	sh.mu.RUnlock()
	return ref, ok
}

func (x *shardedIndex) has(key string) bool {
	_, ok := x.get(key)
	return ok
}

// putIfAbsent inserts key→ref unless key is already indexed — the
// index-level half of the store's first-write-wins contract.
func (x *shardedIndex) putIfAbsent(key string, ref recordRef) {
	sh := x.shardFor(key)
	sh.mu.Lock()
	if _, ok := sh.m[key]; !ok {
		sh.m[key] = ref
	}
	sh.mu.Unlock()
}

func (x *shardedIndex) len() int {
	n := 0
	for i := range x.shards {
		x.shards[i].mu.RLock()
		n += len(x.shards[i].m)
		x.shards[i].mu.RUnlock()
	}
	return n
}

// walk visits every (key, ref) pair, one shard at a time under that
// shard's read lock. fn must not call back into the index.
func (x *shardedIndex) walk(fn func(key string, ref recordRef)) {
	for i := range x.shards {
		x.shards[i].mu.RLock()
		for k, ref := range x.shards[i].m {
			fn(k, ref)
		}
		x.shards[i].mu.RUnlock()
	}
}

// insertUnlocked assigns key→ref without taking the shard lock or
// checking for an existing entry. Only the Open-time snapshot loader
// may call it: the store is not yet visible to any other goroutine, and
// snapshot keys are unique by construction (they were walked out of a
// map), so neither the lock nor the first-write-wins probe buys
// anything — and at a million keys they are most of the reopen cost.
func (x *shardedIndex) insertUnlocked(key string, ref recordRef) {
	x.shardFor(key).m[key] = ref
}

// preallocate sizes every shard's map for about n total keys — the
// snapshot loader calls it before bulk insertion so a million-entry
// reopen does not rehash 64 maps a dozen times each.
func (x *shardedIndex) preallocate(n int) {
	per := n/indexShards + 1
	for i := range x.shards {
		x.shards[i].mu.Lock()
		if len(x.shards[i].m) == 0 {
			x.shards[i].m = make(map[string]recordRef, per)
		}
		x.shards[i].mu.Unlock()
	}
}
