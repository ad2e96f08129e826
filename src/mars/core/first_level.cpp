#include "mars/core/first_level.h"

#include <algorithm>

#include "mars/ga/operators.h"
#include "mars/util/error.h"

namespace mars::core {

FirstLevelCodec::FirstLevelCodec(const Problem& problem,
                                 std::vector<topology::AccSetCandidate> candidates)
    : problem_(&problem), candidates_(std::move(candidates)) {
  MARS_CHECK_ARG(!candidates_.empty(), "no AccSet candidates");
}

int FirstLevelCodec::genome_size() const {
  const int c = static_cast<int>(candidates_.size());
  const int d = problem_->designs->size();
  return c * (2 + d);
}

int FirstLevelCodec::candidate_index(topology::AccMask mask) const {
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i].mask == mask) return static_cast<int>(i);
  }
  MARS_THROW("mask " << topology::mask_to_string(mask)
                     << " is not a candidate AccSet");
}

std::vector<int> largest_remainder(int total, const std::vector<double>& weights,
                                   double weight_sum) {
  // The descending stable insertion sort below yields the same (unique)
  // permutation std::stable_sort would: equal remainders keep their index
  // order. Scratch is thread_local: this runs on every genome decode.
  std::vector<int> counts(weights.size(), 0);
  thread_local std::vector<std::pair<double, std::size_t>> remainders;
  remainders.clear();
  remainders.reserve(weights.size());
  int allocated = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = total * weights[i] / weight_sum;
    counts[i] = static_cast<int>(exact);
    allocated += counts[i];
    remainders.emplace_back(exact - counts[i], i);
  }
  for (std::size_t j = 1; j < remainders.size(); ++j) {
    const std::pair<double, std::size_t> x = remainders[j];
    std::size_t k = j;
    while (k > 0 && remainders[k - 1].first < x.first) {
      remainders[k] = remainders[k - 1];
      --k;
    }
    remainders[k] = x;
  }
  for (int extra = total - allocated; extra > 0; --extra) {
    counts[remainders[static_cast<std::size_t>(total - allocated - extra) %
                      remainders.size()]
               .second] += 1;
  }
  return counts;
}

Skeleton FirstLevelCodec::decode(const ga::Genome& genome) const {
  MARS_CHECK_ARG(static_cast<int>(genome.size()) == genome_size(),
                 "genome size mismatch");
  const int c = static_cast<int>(candidates_.size());
  const int d = problem_->designs->size();
  const double* prio = genome.data();
  const double* design_genes = genome.data() + c;
  const double* share_genes = genome.data() + c + c * d;

  const std::vector<std::size_t> partition = topology::decode_partition(
      *problem_->topo, candidates_,
      {prio, static_cast<std::size_t>(c)}, problem_->placement_mask());

  // Shares: proportional layer allocation with a small floor so a set only
  // drops out when its gene is pushed firmly to zero. The scratch buffer is
  // thread_local because this is the hottest decode path and fitness_batch
  // fans decodes across the worker pool.
  thread_local std::vector<double> shares;
  shares.clear();
  double share_sum = 0.0;
  for (const std::size_t index : partition) {
    const double share = std::max(0.0, share_genes[index]);
    shares.push_back(share);
    share_sum += share;
  }
  if (share_sum <= 0.0) {
    shares.assign(partition.size(), 1.0);
    share_sum = static_cast<double>(partition.size());
  }
  const std::vector<int> counts =
      largest_remainder(problem_->spine->size(), shares, share_sum);

  Skeleton skeleton;
  int cursor = 0;
  for (std::size_t i = 0; i < partition.size(); ++i) {
    if (counts[i] == 0) continue;  // unused set: accelerators idle
    LayerAssignment set;
    set.accs = candidates_[partition[i]].mask;
    set.begin = cursor;
    set.end = cursor + counts[i];
    cursor = set.end;
    if (problem_->adaptive) {
      // Argmax of the candidate's design genes, ties to the lower design.
      const double* genes = design_genes + partition[i] * d;
      set.design = static_cast<accel::DesignId>(
          std::max_element(genes, genes + d) - genes);
    }
    skeleton.sets.push_back(set);
  }
  MARS_CHECK(cursor == problem_->spine->size() && !skeleton.sets.empty(),
             "layer allocation failed to cover the spine");
  return skeleton;
}

ga::Genome FirstLevelCodec::encode(const Skeleton& skeleton,
                                   const std::vector<double>& design_scores) const {
  const int c = static_cast<int>(candidates_.size());
  const int d = problem_->designs->size();
  MARS_CHECK_ARG(static_cast<int>(design_scores.size()) == d,
                 "one score per design required");
  ga::Genome genome(static_cast<std::size_t>(genome_size()), 0.0);

  // Candidate priorities: chosen sets get descending high priorities so the
  // greedy partition decoder picks exactly them.
  double priority = 1.0;
  const int num_layers = problem_->spine->size();
  for (const LayerAssignment& set : skeleton.sets) {
    const int index = candidate_index(set.accs);
    genome[static_cast<std::size_t>(index)] = priority;
    priority -= 0.05;

    for (int k = 0; k < d; ++k) {
      genome[static_cast<std::size_t>(c + index * d + k)] =
          0.5 * design_scores[static_cast<std::size_t>(k)];
    }
    if (problem_->adaptive) {
      MARS_CHECK_ARG(set.design >= 0 && set.design < d, "skeleton missing design");
      genome[static_cast<std::size_t>(c + index * d + set.design)] = 1.0;
    }
    genome[static_cast<std::size_t>(c + c * d + index)] =
        static_cast<double>(set.num_layers()) / num_layers;
  }
  return genome;
}

ga::Genome FirstLevelCodec::profiled_random(
    const std::vector<double>& design_scores, Rng& rng) const {
  const int c = static_cast<int>(candidates_.size());
  const int d = problem_->designs->size();
  MARS_CHECK_ARG(static_cast<int>(design_scores.size()) == d,
                 "one score per design required");
  ga::Genome genome = ga::random_genome(genome_size(), 0.0, 1.0, rng);
  // The paper initialises design genes from normalised profiled
  // performance; jitter keeps the population diverse.
  for (int index = 0; index < c; ++index) {
    for (int k = 0; k < d; ++k) {
      const double jitter = rng.uniform(-0.1, 0.1);
      genome[static_cast<std::size_t>(c + index * d + k)] = std::clamp(
          design_scores[static_cast<std::size_t>(k)] + jitter, 0.0, 1.0);
    }
  }
  return genome;
}

}  // namespace mars::core
