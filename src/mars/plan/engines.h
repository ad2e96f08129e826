// The five concrete search engines behind plan::SearchEngine.
//
//  * GaEngine       — the paper's two-level genetic search (the default
//                     and strongest engine).
//  * AnnealingEngine — simulated annealing over the first-level skeleton
//                     genome, pricing each proposal with the memoised
//                     second-level greedy search (core::SkeletonSpace).
//  * RandomEngine   — budgeted random sampling of skeletons: the ablation
//                     floor any search must beat.
//  * BaselineEngine — the Herald-extended baseline (core/baseline.*), no
//                     search at all.
//  * PortfolioEngine — a composite: races member engines under slices of
//                     one shared budget and keeps the winning mapping
//                     (the MAGMA observation that no single optimizer
//                     wins across workloads, operationalised).
//
// All engines are deterministic under their config seed, honour Budget
// limits cooperatively, seed from the baseline mapping by default (so
// their result never loses to it under the analytic model), and validate
// their configuration at construction with named errors.
//
// Threading: every `threads` knob below fans fitness evaluation across a
// util::WorkerPool. Results are byte-identical at any thread count, so
// `threads` never appears in a spec_string (docs/PERFORMANCE.md).
// threads() reads the knob and with_threads() copies the engine with a
// new one; a portfolio passes the count on to every member.
#pragma once

#include <memory>

#include "mars/core/mars.h"
#include "mars/plan/engine.h"

namespace mars::plan {

/// MARS: the two-level genetic mapping algorithm (Section V).
///
/// First level (ga::GaEngine over FirstLevelCodec genomes): accelerator-set
/// partition from the edge-removal candidate family, per-set designs, and
/// contiguous layer allocation. Its fitness evaluates each candidate set
/// with the memoised second-level search and adds inter-set and host I/O
/// costs. Second level: per-layer ES/SS strategies (greedy oracle inside
/// the loop, GA polish on the winner — see core/second_level.h). The
/// search-space machinery (codec, profile, memoised second level) is
/// core::SkeletonSpace, shared with the other skeleton engines. With
/// `two_level = false` (ablation A1) one flat genome decides sets, designs
/// and per-layer strategies instead, priced without the second level.
///
/// Evaluations are first-level genome evaluations; the budget is polled at
/// generation boundaries. The two-level search polls it once more after
/// the GA to decide on the polish pass (only when a budget, progress
/// callback or trace recorder is active, as for the generation polls). Deterministic under MarsConfig::seed (util/rng.h is the only
/// randomness source). The caller keeps the Problem's spine, topology and
/// registry alive for the search.
class GaEngine final : public SearchEngine {
 public:
  explicit GaEngine(core::MarsConfig config = {});

  [[nodiscard]] std::string name() const override { return "ga"; }
  [[nodiscard]] std::string spec_string() const override;
  [[nodiscard]] int threads() const override { return config_.threads; }
  [[nodiscard]] std::unique_ptr<SearchEngine> with_threads(
      int threads) const override;
  [[nodiscard]] PlanResult search(const core::Problem& problem,
                                  const Budget& budget = {},
                                  const ProgressFn& progress = {}) const override;
  [[nodiscard]] const core::MarsConfig& config() const { return config_; }

 private:
  core::MarsConfig config_;
};

struct AnnealConfig {
  core::SecondLevelConfig second;
  bool heuristic_candidates = true;
  /// GA-polish the winning skeleton's strategies (same pass as MARS).
  bool refine_winner = true;
  /// Start from the encoded baseline skeleton; off starts from a profiled
  /// random genome.
  bool seed_baseline = true;
  /// Proposal steps (= evaluations) when the budget does not stop earlier.
  int iterations = 1200;
  /// Geometric temperature schedule, relative to the current fitness:
  /// a move worsening fitness by `t x 100` percent is accepted with
  /// probability 1/e at temperature t.
  double initial_temperature = 0.2;
  double final_temperature = 1e-3;
  /// Gaussian step size per perturbed gene (genes live in [0, 1]).
  double step_sigma = 0.25;
  /// Genes perturbed per proposal.
  int moves_per_step = 2;
  /// Independent Metropolis chains sharing the temperature schedule and
  /// the memoised second level; the best chain wins. Each step proposes
  /// one move per chain and prices them as one batch, so chains are what
  /// `threads` parallelises (one chain is inherently sequential). Part of
  /// the spec (changes results). Evaluation budgets stay exact: a step
  /// (and, without seed_baseline, the start cohort) truncates to the
  /// first k chains when fewer than `chains` evaluations remain.
  int chains = 1;
  std::uint64_t seed = 1;
  /// Fitness threads (execution-only, never in the spec; see above).
  int threads = 1;
};

class AnnealingEngine final : public SearchEngine {
 public:
  explicit AnnealingEngine(AnnealConfig config = {});

  [[nodiscard]] std::string name() const override { return "anneal"; }
  [[nodiscard]] std::string spec_string() const override;
  [[nodiscard]] int threads() const override { return config_.threads; }
  [[nodiscard]] std::unique_ptr<SearchEngine> with_threads(
      int threads) const override;
  [[nodiscard]] PlanResult search(const core::Problem& problem,
                                  const Budget& budget = {},
                                  const ProgressFn& progress = {}) const override;
  [[nodiscard]] const AnnealConfig& config() const { return config_; }

 private:
  AnnealConfig config_;
};

struct RandomConfig {
  core::SecondLevelConfig second;
  bool heuristic_candidates = true;
  bool refine_winner = true;
  /// The first sample is the encoded baseline skeleton (quality floor).
  bool seed_baseline = true;
  /// Samples drawn (= evaluations) when the budget does not stop earlier.
  int samples = 1200;
  /// Fraction of samples drawn with profiled design genes (the paper's
  /// initialisation heuristic); the rest are uniform.
  double profiled_fraction = 0.5;
  std::uint64_t seed = 1;
  /// Fitness threads (execution-only, never in the spec). Samples are
  /// drawn in fixed-size batches (32) whose size is independent of
  /// `threads` and clamped to the remaining evaluation budget, so
  /// evaluation budgets stay exact and results match the serial engine
  /// bit for bit. Wall-clock budgets and cancellation are polled at
  /// batch boundaries, so either may overshoot by up to one batch.
  int threads = 1;
};

class RandomEngine final : public SearchEngine {
 public:
  explicit RandomEngine(RandomConfig config = {});

  [[nodiscard]] std::string name() const override { return "random"; }
  [[nodiscard]] std::string spec_string() const override;
  [[nodiscard]] int threads() const override { return config_.threads; }
  [[nodiscard]] std::unique_ptr<SearchEngine> with_threads(
      int threads) const override;
  [[nodiscard]] PlanResult search(const core::Problem& problem,
                                  const Budget& budget = {},
                                  const ProgressFn& progress = {}) const override;
  [[nodiscard]] const RandomConfig& config() const { return config_; }

 private:
  RandomConfig config_;
};

/// Herald-extended baseline: closed-form, zero evaluations, bypasses the
/// serving mapping cache (searches() is false).
class BaselineEngine final : public SearchEngine {
 public:
  [[nodiscard]] std::string name() const override { return "baseline"; }
  [[nodiscard]] std::string spec_string() const override { return "baseline"; }
  [[nodiscard]] bool searches() const override { return false; }
  [[nodiscard]] int threads() const override { return 1; }
  [[nodiscard]] std::unique_ptr<SearchEngine> with_threads(
      int threads) const override;
  [[nodiscard]] PlanResult search(const core::Problem& problem,
                                  const Budget& budget = {},
                                  const ProgressFn& progress = {}) const override;
};

/// Races member engines sequentially under slices of one shared Budget
/// and returns the member mapping with the lowest analytic makespan
/// (ties to the earlier member). Slicing policy: before member i of the
/// n - i not yet raced, the remaining evaluation/wall-clock budget is
/// divided evenly among the n - i — so a member that stops early
/// (converged, stall) donates its unused slice to the members after it.
/// An optional per-member wall-clock cap ("race:ga+anneal,500") applies
/// on top (min with the slice). Cancellation is checked between members;
/// a cancelled portfolio returns the best mapping of the members that
/// did run (the first member always runs — engines return a valid
/// mapping even pre-cancelled).
///
/// Provenance: engine "portfolio", `winner` names the winning member,
/// `members` holds each raced member's own provenance in order, and
/// evaluations/iterations sum over members. spec_string() embeds every
/// member's spec, so a portfolio never aliases a member alone in the
/// mapping cache.
class PortfolioEngine final : public SearchEngine {
 public:
  /// `members` must hold >= 2 engines; `member_wall` <= 0 means no
  /// per-member cap. Throws InvalidArgument (named) otherwise.
  explicit PortfolioEngine(std::vector<std::unique_ptr<SearchEngine>> members,
                           Seconds member_wall = Seconds(0.0));

  [[nodiscard]] std::string name() const override { return "portfolio"; }
  [[nodiscard]] std::string spec_string() const override;
  /// The most threads any member searches on (members race one at a time).
  [[nodiscard]] int threads() const override;
  /// Every member on `threads` threads.
  [[nodiscard]] std::unique_ptr<SearchEngine> with_threads(
      int threads) const override;
  [[nodiscard]] PlanResult search(const core::Problem& problem,
                                  const Budget& budget = {},
                                  const ProgressFn& progress = {}) const override;
  [[nodiscard]] const std::vector<std::unique_ptr<SearchEngine>>& members()
      const {
    return members_;
  }

 private:
  std::vector<std::unique_ptr<SearchEngine>> members_;
  Seconds member_wall_;
};

/// The engine names make_engine accepts, in documentation order.
[[nodiscard]] const std::vector<std::string>& engine_names();

/// Builds an engine by name ("ga" — alias "mars" —, "anneal", "random",
/// "baseline", "portfolio"), deriving its configuration from `tuning`:
/// the GA engine takes it verbatim; anneal/random inherit the
/// second-level config, seed, threads, candidate/refine/seed-baseline
/// flags, and size their schedules to the GA's evaluation budget
/// (population x generations) so engine comparisons are evaluation-fair.
/// "portfolio" races ga+anneal+random; "race:<m>+<m>[+...][,MS]" picks
/// the members explicitly with an optional per-member wall-clock cap of
/// MS milliseconds (members are leaf engine names — a race inside a race
/// is rejected). Throws InvalidArgument naming the unknown engine and
/// the valid names.
[[nodiscard]] std::unique_ptr<SearchEngine> make_engine(
    const std::string& name, const core::MarsConfig& tuning = {});

}  // namespace mars::plan
