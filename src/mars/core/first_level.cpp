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

FirstLevelCodec::GeneBlock FirstLevelCodec::block_of(std::size_t gene) const {
  MARS_CHECK_ARG(gene < static_cast<std::size_t>(genome_size()),
                 "gene index " << gene << " outside genome of size "
                               << genome_size());
  const auto c = candidates_.size();
  const auto d = static_cast<std::size_t>(problem_->designs->size());
  if (gene < c) return GeneBlock::kPriority;
  if (gene < c + c * d) return GeneBlock::kDesign;
  return GeneBlock::kShare;
}

int FirstLevelCodec::candidate_of(std::size_t gene) const {
  const auto c = candidates_.size();
  const auto d = static_cast<std::size_t>(problem_->designs->size());
  switch (block_of(gene)) {
    case GeneBlock::kPriority:
      return static_cast<int>(gene);
    case GeneBlock::kDesign:
      return static_cast<int>((gene - c) / d);
    case GeneBlock::kShare:
      return static_cast<int>(gene - c - c * d);
  }
  MARS_THROW("unreachable gene block");
}

std::vector<int> FirstLevelCodec::decode_counts(
    const double* share_genes, const std::vector<int>& candidate) const {
  // Shares: proportional layer allocation with a small floor so a set only
  // drops out when its gene is pushed firmly to zero. Scratch buffers are
  // thread_local because this sits on the hottest decode path (every full
  // decode and most retraces) and fitness_batch fans decodes across the
  // worker pool.
  thread_local std::vector<double> shares;
  shares.clear();
  shares.reserve(candidate.size());
  double share_sum = 0.0;
  for (int index : candidate) {
    const double share = std::max(0.0, share_genes[index]);
    shares.push_back(share);
    share_sum += share;
  }
  if (share_sum <= 0.0) {
    shares.assign(candidate.size(), 1.0);
    share_sum = static_cast<double>(candidate.size());
  }
  return largest_remainder(problem_->spine->size(), shares, share_sum);
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

int FirstLevelCodec::decode_design(const double* design_genes,
                                   int candidate) const {
  const int d = problem_->designs->size();
  int best = 0;
  for (int k = 1; k < d; ++k) {
    if (design_genes[candidate * d + k] > design_genes[candidate * d + best]) {
      best = k;
    }
  }
  return best;
}

Skeleton FirstLevelCodec::assemble(const DecodeTrace& trace) const {
  Skeleton skeleton;
  int cursor = 0;
  for (std::size_t i = 0; i < trace.partition.size(); ++i) {
    if (trace.counts[i] == 0) continue;  // unused set: accelerators idle
    LayerAssignment set;
    set.accs = trace.partition[i];
    set.begin = cursor;
    set.end = cursor + trace.counts[i];
    cursor = set.end;
    if (problem_->adaptive) set.design = trace.designs[i];
    skeleton.sets.push_back(set);
  }
  MARS_CHECK(cursor == problem_->spine->size() && !skeleton.sets.empty(),
             "layer allocation failed to cover the spine");
  return skeleton;
}

Skeleton FirstLevelCodec::decode(const ga::Genome& genome,
                                 DecodeTrace* trace) const {
  MARS_CHECK_ARG(static_cast<int>(genome.size()) == genome_size(),
                 "genome size mismatch");
  const int c = static_cast<int>(candidates_.size());
  const int d = problem_->designs->size();
  const double* prio = genome.data();
  const double* design_genes = genome.data() + c;
  const double* share_genes = genome.data() + c + c * d;

  DecodeTrace t;
  t.partition =
      topology::decode_partition(*problem_->topo, candidates_,
                                 std::vector<double>(prio, prio + c),
                                 problem_->placement_mask());
  t.candidate.reserve(t.partition.size());
  for (topology::AccMask mask : t.partition) {
    t.candidate.push_back(candidate_index(mask));
  }
  t.counts = decode_counts(share_genes, t.candidate);
  t.designs.reserve(t.partition.size());
  for (int index : t.candidate) {
    t.designs.push_back(problem_->adaptive ? decode_design(design_genes, index)
                                           : -1);
  }

  Skeleton skeleton = assemble(t);
  if (trace != nullptr) *trace = std::move(t);
  return skeleton;
}

namespace {

/// The <, >, or tie outcome decode_partition's comparator sees for a pair.
int trichotomy(double x, double y) {
  return static_cast<int>(x > y) - static_cast<int>(y > x);
}

}  // namespace

FirstLevelCodec::Retrace FirstLevelCodec::retrace(
    const ga::Genome& child, const ga::Genome& parent,
    const DecodeTrace& parent_trace,
    const std::vector<std::size_t>& changed) const {
  MARS_CHECK_ARG(static_cast<int>(child.size()) == genome_size(),
                 "genome size mismatch");
  MARS_CHECK_ARG(parent.size() == child.size(), "parent genome size mismatch");
  const int c = static_cast<int>(candidates_.size());
  const int d = problem_->designs->size();

  bool shares_changed = false;
  std::vector<std::size_t> changed_priorities;
  std::vector<int> touched_candidates;
  for (std::size_t gene : changed) {
    switch (block_of(gene)) {
      case GeneBlock::kPriority:
        changed_priorities.push_back(gene);
        break;
      case GeneBlock::kDesign:
        touched_candidates.push_back(candidate_of(gene));
        break;
      case GeneBlock::kShare:
        shares_changed = true;
        break;
    }
  }

  Retrace rt;

  // Priority genes feed only the partition decode, and the partition is a
  // pure function of the candidates' stable-sort order. If every pair
  // involving a changed priority gene keeps its comparison outcome, the
  // sort permutation — and therefore the partition — is provably the
  // parent's without recomputing it. Only order-crossing moves recompute,
  // and only an actually moved partition rebuilds downstream stages from
  // the partition just computed (decode() minus its partition call).
  bool order_crossed = false;
  for (std::size_t g : changed_priorities) {
    for (int j = 0; j < c && !order_crossed; ++j) {
      if (static_cast<std::size_t>(j) == g) continue;
      order_crossed = trichotomy(parent[g], parent[j]) !=
                      trichotomy(child[g], child[j]);
    }
    if (order_crossed) break;
  }
  if (order_crossed) {
    const double* prio = child.data();
    std::vector<topology::AccMask> partition = topology::decode_partition(
        *problem_->topo, candidates_, std::vector<double>(prio, prio + c),
        problem_->placement_mask());
    if (partition != parent_trace.partition) {
      rt.same = false;
      DecodeTrace& t = rt.trace;
      t.partition = std::move(partition);
      t.candidate.reserve(t.partition.size());
      for (topology::AccMask mask : t.partition) {
        t.candidate.push_back(candidate_index(mask));
      }
      t.counts = decode_counts(child.data() + c + c * d, t.candidate);
      t.designs.reserve(t.partition.size());
      for (int index : t.candidate) {
        t.designs.push_back(
            problem_->adaptive ? decode_design(child.data() + c, index) : -1);
      }
      return rt;
    }
  }

  // Partition held: recompute counts/designs only where genes moved, and
  // compare against the parent before materialising anything.
  std::vector<int> counts;
  bool counts_differ = false;
  if (shares_changed) {
    counts = decode_counts(child.data() + c + c * d, parent_trace.candidate);
    counts_differ = counts != parent_trace.counts;
  }
  std::vector<std::pair<std::size_t, int>> design_updates;
  if (problem_->adaptive && !touched_candidates.empty()) {
    for (std::size_t i = 0; i < parent_trace.candidate.size(); ++i) {
      if (std::find(touched_candidates.begin(), touched_candidates.end(),
                    parent_trace.candidate[i]) != touched_candidates.end()) {
        const int design =
            decode_design(child.data() + c, parent_trace.candidate[i]);
        if (design != parent_trace.designs[i]) {
          design_updates.emplace_back(i, design);
        }
      }
    }
  }
  if (!counts_differ && design_updates.empty()) return rt;  // same trace

  rt.same = false;
  rt.trace = parent_trace;
  if (counts_differ) rt.trace.counts = std::move(counts);
  for (const auto& [entry, design] : design_updates) {
    rt.trace.designs[entry] = design;
  }
  return rt;
}

Skeleton FirstLevelCodec::redecode(const ga::Genome& child,
                                   const ga::Genome& parent,
                                   const DecodeTrace& parent_trace,
                                   const std::vector<std::size_t>& changed,
                                   DecodeTrace* trace) const {
  Retrace rt = retrace(child, parent, parent_trace, changed);
  const DecodeTrace& t = rt.same ? parent_trace : rt.trace;
  Skeleton skeleton = assemble(t);
  if (trace != nullptr) *trace = t;
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
