// Radius-search walkthrough: near-duplicate grouping over an image-like
// embedding set. Top-k search answers "the k closest, however far"; the
// dedupe workload wants the opposite — "everything within a similarity
// threshold, however many". RadiusSearch returns exactly that as
// variable-length CSR rows, so one pass over the collection groups every
// near-duplicate cluster without guessing k.
//
// The demo plants duplicate "re-uploads" (tiny perturbations of originals),
// picks the radius from the observed nearest-neighbor distance distribution,
// and groups with three configurations: an exhaustive scan, an IVF index at
// a partial probe budget, and a filtered query restricted to one "user".
//
// Build: cmake --build build --target radius_search
// Run:   ./build/examples/radius_search
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "usp.h"
#include "util/rng.h"

namespace {

// A collection with planted near-duplicates: every 10th vector gets two
// "re-uploads" at jitter ~1% of the typical feature scale.
usp::Matrix MakeCollection(size_t originals, size_t dim, uint64_t seed,
                           std::vector<uint32_t>* dup_of) {
  usp::Rng rng(seed);
  const usp::Matrix base = usp::Matrix::RandomGaussian(originals, dim, &rng);
  std::vector<float> rows;
  dup_of->clear();
  for (size_t i = 0; i < originals; ++i) {
    rows.insert(rows.end(), base.Row(i), base.Row(i) + dim);
    dup_of->push_back(static_cast<uint32_t>(dup_of->size()));
    if (i % 10 != 0) continue;
    const uint32_t original = dup_of->back();
    for (int copy = 0; copy < 2; ++copy) {
      for (size_t c = 0; c < dim; ++c) {
        rows.push_back(base.Row(i)[c] +
                       0.01f * static_cast<float>(rng.Gaussian()));
      }
      dup_of->push_back(original);
    }
  }
  const size_t count = rows.size() / dim;
  return usp::Matrix(count, dim, std::move(rows));
}

size_t TotalHits(const usp::RadiusResult& result) { return result.ids.size(); }

}  // namespace

int main() {
  const size_t dim = 64;
  std::vector<uint32_t> dup_of;  // ground truth: which original each row copies
  const usp::Matrix collection = MakeCollection(500, dim, /*seed=*/7, &dup_of);
  const size_t n = collection.rows();
  std::printf("collection: %zu vectors (%zu planted duplicates), d=%zu\n", n,
              n - 500, dim);

  // Pick the threshold from the data: duplicates sit far below the typical
  // nearest-neighbor distance, so any radius between the two modes works.
  // Here: halfway (geometrically) between the median 1-NN distance of
  // duplicate rows and of clean rows.
  const usp::KnnResult nn = usp::BuildKnnMatrix(collection, /*k=*/1);
  std::vector<float> dup_nn, clean_nn;
  for (size_t i = 0; i < n; ++i) {
    const bool is_dup = dup_of[i] != i || (i + 1 < n && dup_of[i + 1] == i);
    (is_dup ? dup_nn : clean_nn).push_back(nn.distances[i]);
  }
  std::sort(dup_nn.begin(), dup_nn.end());
  std::sort(clean_nn.begin(), clean_nn.end());
  const float radius = std::sqrt(dup_nn[dup_nn.size() / 2] *
                                 clean_nn[clean_nn.size() / 2]);
  std::printf("radius picked from 1-NN distances: %.4f (dup median %.4f, "
              "clean median %.4f)\n\n",
              radius, dup_nn[dup_nn.size() / 2],
              clean_nn[clean_nn.size() / 2]);

  // 1) Exhaustive grouping: query the collection against itself. Row i's
  // radius row is its duplicate group (plus itself at distance 0).
  const usp::RadiusResult exact =
      usp::BruteForceRadius(collection, collection, radius,
                            usp::Metric::kSquaredL2);
  size_t groups = 0, grouped_rows = 0;
  for (size_t i = 0; i < n; ++i) {
    if (exact.RowSize(i) > 1) {
      ++grouped_rows;
      // Count each group once, at its smallest member id. (Rows are sorted
      // by distance — the row's own id leads at distance 0 — so the group
      // representative is the minimum id in the row, not the first.)
      const uint32_t* ids = exact.RowIds(i);
      if (*std::min_element(ids, ids + exact.RowSize(i)) == i) ++groups;
    }
  }
  std::printf("brute force:  %zu rows in %zu duplicate groups (%zu hits "
              "total)\n",
              grouped_rows, groups, TotalHits(exact));

  // 2) The same query through an IVF index. At full budget the rows are
  // bit-identical to brute force; at a partial budget the scan is cheaper
  // and duplicates are still found because they share the query's bin.
  usp::IvfConfig config;
  config.nlist = 32;
  config.seed = 3;
  const usp::IvfFlatIndex ivf(&collection, config);
  usp::RadiusOptions options;
  options.budget = 4;  // probe 4 of 32 lists
  options.stats = true;
  const usp::RadiusResult approx =
      ivf.RadiusSearch(collection, radius, options);
  size_t scored = 0;
  for (size_t q = 0; q < n; ++q) scored += approx.stats->candidates_scored[q];
  std::printf("ivf nprobe=4: %zu hits, %.0f%% of pairs scored\n",
              TotalHits(approx),
              100.0 * static_cast<double>(scored) /
                  (static_cast<double>(n) * static_cast<double>(n)));

  // 3) Filtered: dedupe only within one "user's" uploads (ids 0 mod 3).
  usp::IdSelectorBitmap mine(n);
  for (uint32_t id = 0; id < n; id += 3) mine.Set(id);
  usp::RadiusOptions filtered;
  filtered.budget = 1u << 20;  // exhaustive
  filtered.filter = &mine;
  const usp::RadiusResult user_rows =
      ivf.RadiusSearch(collection, radius, filtered);
  std::printf("filtered:     %zu hits within the user's %zu uploads\n",
              TotalHits(user_rows), mine.count());

  // The full-budget filtered rows are bit-identical to filtered brute force.
  usp::RadiusOptions mine_only;
  mine_only.filter = &mine;
  const usp::RadiusResult reference = usp::BruteForceRadius(
      collection, collection, radius, usp::Metric::kSquaredL2, mine_only);
  const bool identical = user_rows.offsets == reference.offsets &&
                         user_rows.ids == reference.ids &&
                         user_rows.distances == reference.distances;
  std::printf("filtered rows match brute force bit-for-bit: %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
