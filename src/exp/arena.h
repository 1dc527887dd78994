// Per-worker run arena: thread-local fabric cache for the sharded
// experiment runner.
//
// Every cell of a sweep used to build its FatTree twice — once in
// compare_schedulers for sizing, once in run_one for simulation. The arena
// constructs each distinct fabric once per worker and hands out the cached
// one (DESIGN.md §9).
//
// The arena is strictly thread-local (RunArena::local()); nothing in it is
// shared or locked. It caches constructed FatTree fabrics keyed by their
// full Config (k, capacity, ECMP salt). FatTree is immutable after
// construction, so results are byte-identical with or without the cache,
// at any worker count, in any cell execution order. The 1/2/8-worker
// byte-identity tests (parallel_runner_test.cpp) pin this down.
#pragma once

#include <memory>
#include <vector>

#include "topology/fattree.h"

namespace gurita {

class RunArena {
 public:
  /// The calling thread's arena (thread_local singleton). Lives until the
  /// thread exits. run_sharded's spawned workers live for one call, so their
  /// cached state spans the cells they execute in it; the calling thread is
  /// a worker too, and its arena persists across calls.
  static RunArena& local();

  /// A fabric constructed with exactly `config`, cached across calls.
  /// FatTree is immutable after construction, so the returned reference is
  /// safe to share among all runs on this thread; it stays valid for the
  /// thread's lifetime.
  const FatTree& fabric(const FatTree::Config& config);

  RunArena(const RunArena&) = delete;
  RunArena& operator=(const RunArena&) = delete;

 private:
  RunArena() = default;

  struct CachedFabric {
    FatTree::Config config;
    std::unique_ptr<FatTree> tree;
  };
  /// Linear scan: a sweep touches one or two distinct configs.
  std::vector<CachedFabric> fabrics_;
};

}  // namespace gurita
