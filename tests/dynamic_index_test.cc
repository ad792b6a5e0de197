// Tests for the mutable serving layer (serve/dynamic_index.h): exact search
// over the write segment, bit-identical pass-through of a single sealed
// segment, tombstone deletes, seal/compact lifecycle, container round-trips,
// and a read-while-insert stress test (run under TSan by the CI sanitizer
// job) with a recall floor asserted after sealing.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/workload.h"
#include "index/serialize.h"
#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace usp {
namespace {

// Budget large enough that every segment (IVF-Flat with nlist <= sqrt(n))
// probes all of its lists, making sealed-segment search exact.
constexpr size_t kFullBudget = 1u << 20;

const Workload& DynWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;
    spec.num_base = 600;
    spec.num_queries = 40;
    spec.gt_k = 10;
    spec.knn_k = 8;
    spec.seed = 123;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(DynamicIndexTest, EmptyIndexReturnsPaddingOnly) {
  DynamicIndex index(8);
  Matrix queries(2, 8);
  const BatchSearchResult result = index.SearchBatch(queries, 5, 4);
  ASSERT_EQ(result.ids.size(), 10u);
  for (size_t i = 0; i < result.ids.size(); ++i) {
    EXPECT_EQ(result.ids[i], kInvalidId);
    EXPECT_EQ(result.distances[i],
              std::numeric_limits<float>::infinity());
  }
  EXPECT_EQ(index.size(), 0u);
}

TEST(DynamicIndexTest, StatsAggregateAcrossSegments) {
  // Regression for the fan-out stats contract (shared with ShardedIndex):
  // per-query stats must be SUMS over every segment touched, and at full
  // budget scored + filtered_out must account for every live row.
  const Workload& w = DynWorkload();
  const size_t n = w.base.rows();
  DynamicIndex index(w.base.cols());
  // Half the rows sealed into an IVF segment, half served from the write
  // segment, so aggregation spans both search paths.
  index.AddBatch(MatrixView(w.base.data(), n / 2, w.base.cols()));
  index.Seal();
  index.AddBatch(
      MatrixView(w.base.Row(n / 2), n - n / 2, w.base.cols()));

  SearchRequest request;
  request.queries = w.queries;
  request.options.k = 10;
  request.options.budget = kFullBudget;
  request.options.stats = true;
  BatchSearchResult got = index.SearchBatch(request);
  ASSERT_TRUE(got.stats.has_value());
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    EXPECT_EQ(got.candidate_counts[q], n) << "q=" << q;
    EXPECT_EQ(got.stats->candidates_scored[q], got.candidate_counts[q]);
    EXPECT_GT(got.stats->bins_probed[q], 0u);
  }

  // Filtered pushdown: every live row is either scored or filtered out.
  IdSelectorRange filter(50, 250);
  request.options.filter = &filter;
  request.options.plan = PlanMode::kForcePushdown;
  got = index.SearchBatch(request);
  ASSERT_TRUE(got.stats.has_value());
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    EXPECT_EQ(got.stats->candidates_scored[q], 200u) << "q=" << q;
    EXPECT_EQ(got.stats->candidates_scored[q] + got.stats->filtered_out[q], n)
        << "q=" << q;
  }
}

// Deletes every 9th id and each query's exact nearest neighbour; returns the
// nearest neighbours (query order).
template <typename Router>
std::vector<uint32_t> DeleteNearestAndEveryNinth(Router* index,
                                                 const Workload& w) {
  for (uint32_t id = 0; id < w.base.rows(); id += 9) {
    EXPECT_TRUE(index->Delete(id));
  }
  const KnnResult exact = BruteForceKnn(w.base, w.queries, 1);
  for (const uint32_t id : exact.indices) index->Delete(id);
  return exact.indices;
}

// The fan-out's per-query accounting under deletes, for k-NN and radius,
// unfiltered and forced-pushdown filtered, at full budget. `held` is the
// number of rows the index physically holds: live rows plus tombstones not
// yet reclaimed. When `nearest` is non-empty, nearest[q] is query q's
// deleted exact nearest neighbour and still held.
void ExpectTombstoneAccounting(const Index& index, const Workload& w,
                               size_t held,
                               const std::vector<uint32_t>& nearest) {
  // Every query's 10 nearest neighbours are in range.
  const KnnResult ten = BruteForceKnn(w.base, w.queries, 10);
  const float radius = *std::max_element(ten.distances.begin(),
                                         ten.distances.end());
  const IdSelectorRange filter(100, 500);
  for (const bool filtered : {false, true}) {
    SCOPED_TRACE(filtered ? "filtered" : "unfiltered");
    SearchRequest request;
    request.queries = w.queries;
    request.options.k = 10;
    request.options.budget = kFullBudget;
    request.options.stats = true;
    if (filtered) {
      request.options.filter = &filter;
      request.options.plan = PlanMode::kForcePushdown;
    }
    RadiusOptions options;
    options.stats = true;
    options.filter = request.options.filter;
    const BatchSearchResult knn = index.SearchBatch(request);
    const RadiusResult range = index.RadiusSearch(w.queries, radius, options);
    ASSERT_TRUE(knn.stats.has_value());
    ASSERT_TRUE(range.stats.has_value());
    for (size_t q = 0; q < w.queries.rows(); ++q) {
      SCOPED_TRACE(testing::Message() << "q=" << q);
      EXPECT_EQ(knn.candidate_counts[q], knn.stats->candidates_scored[q]);
      EXPECT_EQ(range.candidate_counts[q], range.stats->candidates_scored[q]);
      if (filtered) {
        // Every held row is scored or filtered out exactly once.
        EXPECT_EQ(knn.stats->candidates_scored[q] + knn.stats->filtered_out[q],
                  held);
        EXPECT_EQ(
            range.stats->candidates_scored[q] + range.stats->filtered_out[q],
            held);
        continue;
      }
      // Unfiltered, every held row is scored and tombstoned hits drop at the
      // merge, counted as filtered out.
      EXPECT_EQ(knn.candidate_counts[q], held);
      EXPECT_EQ(range.candidate_counts[q], held);
      if (nearest.empty()) continue;
      const uint32_t* row = knn.Row(q);
      EXPECT_EQ(std::find(row, row + knn.k, nearest[q]), row + knn.k);
      EXPECT_GE(knn.stats->filtered_out[q], 1u);
      const uint32_t* hits = range.RowIds(q);
      EXPECT_EQ(std::find(hits, hits + range.RowSize(q), nearest[q]),
                hits + range.RowSize(q));
      EXPECT_GE(range.stats->filtered_out[q], 1u);
    }
  }
}

TEST(DynamicIndexTest, StatsAccountForTombstones) {
  const Workload& w = DynWorkload();
  const size_t n = w.base.rows();
  DynamicIndex index(w.base.cols());
  index.AddBatch(MatrixView(w.base.data(), n / 2, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(n / 2), n - n / 2, w.base.cols()));
  const std::vector<uint32_t> nearest = DeleteNearestAndEveryNinth(&index, w);
  ASSERT_EQ(index.size() + index.num_tombstones(), n);
  ExpectTombstoneAccounting(index, w, n, nearest);

  // Compaction reclaims the sealed tombstones; the write segment's stay held.
  index.Compact();
  const size_t held = index.size() + index.num_tombstones();
  EXPECT_LT(held, n);
  ExpectTombstoneAccounting(index, w, held, {});
}

TEST(DynamicIndexTest, ShardedStatsAccountForTombstones) {
  const Workload& w = DynWorkload();
  const size_t n = w.base.rows();
  ShardedIndexConfig config;
  config.num_shards = 3;
  ShardedIndex index(w.base.cols(), config);
  index.AddBatch(MatrixView(w.base.data(), n / 2, w.base.cols()));
  // Seal each shard's rows so far: shards span sealed and write segments.
  ASSERT_TRUE(index
                  .WithFrozenState([](const ShardedIndex::FrozenState& state) {
                    for (const ShardedIndex::Shard& shard : state.shards) {
                      shard.dynamic->Seal();
                    }
                    return Status::Ok();
                  })
                  .ok());
  index.AddBatch(MatrixView(w.base.Row(n / 2), n - n / 2, w.base.cols()));
  const std::vector<uint32_t> nearest = DeleteNearestAndEveryNinth(&index, w);
  ExpectTombstoneAccounting(index, w, n, nearest);
}

TEST(DynamicIndexTest, WriteSegmentSearchIsExact) {
  const Workload& w = DynWorkload();
  DynamicIndex index(w.base.cols());
  const std::vector<uint32_t> ids = index.AddBatch(w.base);
  ASSERT_EQ(ids.size(), w.base.rows());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<uint32_t>(i));  // contiguous global ids
  }
  EXPECT_EQ(index.size(), w.base.rows());
  EXPECT_EQ(index.write_segment_rows(), w.base.rows());

  const size_t k = 10;
  const BatchSearchResult got = index.SearchBatch(w.queries, k, 1);
  const KnnResult expected = BruteForceKnn(w.base, w.queries, k);
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    for (size_t j = 0; j < k; ++j) {
      EXPECT_EQ(got.Row(q)[j], expected.Row(q)[j]) << "q=" << q << " j=" << j;
    }
  }
}

TEST(DynamicIndexTest, SingleSealedSegmentIsBitIdentical) {
  const Workload& w = DynWorkload();
  IvfConfig ivf;
  ivf.nlist = 16;
  auto segment = std::make_unique<IvfFlatIndex>(&w.base, ivf);
  const size_t k = 10, budget = 4;
  const BatchSearchResult direct =
      segment->SearchBatch(w.queries, k, budget);

  DynamicIndex index(w.base.cols());
  // w.base outlives the test; no storage transfer needed.
  EXPECT_EQ(index.AddSealedSegment(std::move(segment)), 0u);
  EXPECT_EQ(index.size(), w.base.rows());
  const BatchSearchResult via_dynamic =
      index.SearchBatch(w.queries, k, budget);

  // The acceptance bar: ids, distances, and candidate counts all
  // bit-identical to querying the segment directly.
  EXPECT_EQ(via_dynamic.ids, direct.ids);
  EXPECT_EQ(via_dynamic.distances, direct.distances);
  EXPECT_EQ(via_dynamic.candidate_counts, direct.candidate_counts);
}

TEST(DynamicIndexTest, DeletedIdsNeverAppear) {
  const Workload& w = DynWorkload();
  DynamicIndex index(w.base.cols());
  index.AddBatch(w.base);

  std::vector<uint32_t> deleted = {3, 17, 100, 599};
  for (uint32_t id : deleted) {
    EXPECT_TRUE(index.Contains(id));
    EXPECT_TRUE(index.Delete(id));
    EXPECT_FALSE(index.Contains(id));
    EXPECT_FALSE(index.Delete(id));  // double delete
  }
  EXPECT_FALSE(index.Delete(99999));  // never assigned
  EXPECT_EQ(index.size(), w.base.rows() - deleted.size());

  const std::unordered_set<uint32_t> gone(deleted.begin(), deleted.end());
  const BatchSearchResult result =
      index.SearchBatch(w.base, 20, kFullBudget);  // query every base point
  for (size_t q = 0; q < w.base.rows(); ++q) {
    for (size_t j = 0; j < result.k; ++j) {
      const uint32_t id = result.Row(q)[j];
      if (id == kInvalidId) break;
      EXPECT_EQ(gone.count(id), 0u) << "deleted id " << id << " surfaced";
    }
  }

  // Deletes stay deleted across a seal.
  index.Seal();
  EXPECT_EQ(index.num_sealed_segments(), 1u);
  const BatchSearchResult sealed = index.SearchBatch(w.queries, 20, kFullBudget);
  for (size_t i = 0; i < sealed.ids.size(); ++i) {
    if (sealed.ids[i] == kInvalidId) continue;
    EXPECT_EQ(gone.count(sealed.ids[i]), 0u);
  }
}

TEST(DynamicIndexTest, SealPreservesExactRecall) {
  const Workload& w = DynWorkload();
  DynamicIndex index(w.base.cols());
  index.AddBatch(w.base);

  const size_t k = 10;
  const BatchSearchResult before = index.SearchBatch(w.queries, k, kFullBudget);
  index.Seal();
  EXPECT_EQ(index.write_segment_rows(), 0u);
  EXPECT_EQ(index.num_sealed_segments(), 1u);
  const BatchSearchResult after = index.SearchBatch(w.queries, k, kFullBudget);

  // Both are exact (brute force before; full-probe IVF-Flat after), so the
  // result sets agree.
  EXPECT_EQ(before.ids, after.ids);
}

TEST(DynamicIndexTest, CompactDropsTombstonesAndReclaimsIds) {
  const Workload& w = DynWorkload();
  const size_t n = w.base.rows();
  DynamicIndex index(w.base.cols());

  // Two sealed segments + a small write tail.
  index.AddBatch(MatrixView(w.base.Row(0), 250, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(250), 250, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(500), n - 500, w.base.cols()));
  ASSERT_EQ(index.num_sealed_segments(), 2u);
  ASSERT_EQ(index.write_segment_rows(), n - 500);

  std::vector<uint32_t> deleted = {1, 251, 400};  // one per sealed segment
  for (uint32_t id : deleted) ASSERT_TRUE(index.Delete(id));
  EXPECT_EQ(index.num_tombstones(), deleted.size());

  index.Compact();
  EXPECT_EQ(index.num_sealed_segments(), 1u);
  EXPECT_EQ(index.num_tombstones(), 0u);  // reclaimed
  EXPECT_EQ(index.size(), n - deleted.size());
  for (uint32_t id : deleted) {
    EXPECT_FALSE(index.Contains(id));
    EXPECT_FALSE(index.Delete(id));  // id is gone, not deletable again
  }

  // Every live point still finds itself as its own nearest neighbor.
  std::vector<uint32_t> self(n);
  for (size_t i = 0; i < n; ++i) self[i] = static_cast<uint32_t>(i);
  const BatchSearchResult result = index.SearchBatch(w.base, 1, kFullBudget);
  for (size_t q = 0; q < n; ++q) {
    const bool was_deleted =
        std::find(deleted.begin(), deleted.end(), q) != deleted.end();
    if (was_deleted) continue;
    EXPECT_EQ(result.Row(q)[0], self[q]) << "q=" << q;
  }
}

// Regression: a Delete landing while Compact() trains the merged segment
// (outside the lock) must survive the install — the merged segment contains
// the row, so its tombstone must not be reclaimed with the snapshot-excluded
// ones.
TEST(DynamicIndexTest, DeleteDuringCompactionSurvives) {
  const Workload& w = DynWorkload();
  DynamicIndex* index_ptr = nullptr;
  std::atomic<bool> delete_during_build{false};
  const uint32_t victim = 42;

  DynamicIndexConfig config;
  config.segment_builder = [&](const Matrix& base,
                               Metric metric) -> std::unique_ptr<Index> {
    if (delete_during_build.exchange(false)) {
      EXPECT_TRUE(index_ptr->Delete(victim));  // lands mid-training
    }
    IvfConfig ivf;
    ivf.metric = metric;
    ivf.nlist = 4;
    return std::make_unique<IvfFlatIndex>(&base, ivf);
  };
  DynamicIndex index(w.base.cols(), config);
  index_ptr = &index;
  index.AddBatch(MatrixView(w.base.Row(0), 150, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(150), 150, w.base.cols()));
  index.Seal();
  ASSERT_EQ(index.num_sealed_segments(), 2u);

  delete_during_build.store(true);
  index.Compact();  // Delete(victim) fires while the merged segment trains

  EXPECT_FALSE(index.Contains(victim));
  EXPECT_EQ(index.num_tombstones(), 1u);  // kept, not reclaimed
  EXPECT_EQ(index.size(), 299u);
  const BatchSearchResult result = index.SearchBatch(w.base, 20, kFullBudget);
  for (size_t i = 0; i < result.ids.size(); ++i) {
    EXPECT_NE(result.ids[i], victim);
  }

  index.Compact();  // the next compaction physically reclaims it
  EXPECT_EQ(index.num_tombstones(), 0u);
  EXPECT_FALSE(index.Contains(victim));
  EXPECT_EQ(index.size(), 299u);
}

TEST(DynamicIndexTest, AutoSealAndCompactThresholds) {
  const Workload& w = DynWorkload();
  DynamicIndexConfig config;
  config.seal_threshold = 128;
  config.max_sealed_segments = 2;
  DynamicIndex index(w.base.cols(), config);
  index.AddBatch(w.base);
  index.WaitForMaintenance();
  // Background seals fired; compaction keeps the sealed count bounded. The
  // exact counts depend on timing, so assert the invariants, not a schedule.
  EXPECT_GE(index.num_sealed_segments(), 1u);
  EXPECT_EQ(index.size(), w.base.rows());

  // Everything is still found: each base point is its own nearest neighbor.
  const BatchSearchResult result = index.SearchBatch(w.base, 1, kFullBudget);
  for (size_t q = 0; q < w.base.rows(); ++q) {
    EXPECT_EQ(result.Row(q)[0], static_cast<uint32_t>(q));
  }
}

TEST(DynamicIndexTest, SaveOpenRoundTripIsBitIdentical) {
  const Workload& w = DynWorkload();
  const size_t n = w.base.rows();
  DynamicIndex index(w.base.cols());

  // The acceptance shape: write segment + 2 sealed segments + tombstones.
  index.AddBatch(MatrixView(w.base.Row(0), 200, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(200), 200, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(400), n - 400, w.base.cols()));
  ASSERT_TRUE(index.Delete(5));
  ASSERT_TRUE(index.Delete(205));
  ASSERT_TRUE(index.Delete(450));

  const size_t k = 10;
  const BatchSearchResult before = index.SearchBatch(w.queries, k, 8);

  const std::string path = TempPath("dynamic.uspx");
  ASSERT_TRUE(SaveIndex(index, path).ok());

  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    auto loaded = OpenIndex(path, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->type(), IndexType::kDynamic);
    EXPECT_EQ(loaded.value()->dim(), index.dim());
    EXPECT_EQ(loaded.value()->size(), index.size());
    EXPECT_EQ(loaded.value()->metric(), index.metric());
    const BatchSearchResult after =
        loaded.value()->SearchBatch(w.queries, k, 8);
    EXPECT_EQ(after.ids, before.ids);
    EXPECT_EQ(after.distances, before.distances);
    EXPECT_EQ(after.candidate_counts, before.candidate_counts);
  }
  std::remove(path.c_str());
}

TEST(DynamicIndexTest, SaveWhileWritingTakesConsistentSnapshot) {
  const Workload& w = DynWorkload();
  DynamicIndex index(w.base.cols());
  index.AddBatch(MatrixView(w.base.Row(0), 300, w.base.cols()));
  index.Seal();

  // A writer hammers the index while it is saved; the snapshot must load
  // back as a valid container regardless of what it caught.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    size_t i = 300;
    while (!stop.load(std::memory_order_relaxed)) {
      index.Add(w.base.Row(i % w.base.rows()));
      ++i;
    }
  });
  const std::string path = TempPath("dynamic_live.uspx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  stop.store(true);
  writer.join();

  auto loaded = OpenIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GE(loaded.value()->size(), 300u);
  std::remove(path.c_str());
}

// The stress test of the issue: a writer thread appends and deletes while
// reader threads run SearchBatch; must be ThreadSanitizer-clean, and after a
// final seal the recall floor holds.
TEST(DynamicIndexTest, ReadWhileInsertStress) {
  const size_t dim = 16, total = 800, k = 5;
  Rng rng(7);
  Matrix data = Matrix::RandomGaussian(total, dim, &rng);

  DynamicIndexConfig config;
  config.seal_threshold = 200;  // background seals fire during the run
  DynamicIndex index(dim, config);

  std::atomic<bool> done{false};
  std::atomic<size_t> searches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Rng reader_rng(100 + searches.load());
      Matrix queries = Matrix::RandomGaussian(4, dim, &reader_rng);
      while (!done.load(std::memory_order_relaxed)) {
        const BatchSearchResult result =
            index.SearchBatch(queries, k, kFullBudget);
        // Results are well-formed: padding only after real hits.
        for (size_t q = 0; q < queries.rows(); ++q) {
          bool padding = false;
          for (size_t j = 0; j < k; ++j) {
            if (result.Row(q)[j] == kInvalidId) {
              padding = true;
            } else {
              EXPECT_FALSE(padding) << "hit after padding";
            }
          }
        }
        searches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<uint32_t> ids;
  ids.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    ids.push_back(index.Add(data.Row(i)));
    if (i % 7 == 3) index.Delete(ids[i / 2]);  // interleave deletes
  }
  // Keep readers running until they have genuinely overlapped the writes.
  while (searches.load(std::memory_order_relaxed) < 10) {
    std::this_thread::yield();
  }
  done.store(true);
  for (auto& t : readers) t.join();
  index.WaitForMaintenance();
  EXPECT_GT(searches.load(), 0u);

  index.Seal();
  EXPECT_EQ(index.write_segment_rows(), 0u);

  // Recall floor after seal: every live point finds itself at rank 1 (the
  // sealed segments are probed exhaustively at kFullBudget).
  size_t live_checked = 0, hits = 0;
  for (size_t i = 0; i < total; i += 13) {
    if (!index.Contains(ids[i])) continue;
    ++live_checked;
    const BatchSearchResult r =
        index.SearchBatch(MatrixView(data.Row(i), 1, dim), 1, kFullBudget);
    if (r.Row(0)[0] == ids[i]) ++hits;
  }
  ASSERT_GT(live_checked, 0u);
  EXPECT_EQ(hits, live_checked) << "exact full-probe recall must be 1.0";
}

}  // namespace
}  // namespace usp
