#include "mars/serve/cache.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "mars/core/serialize.h"
#include "mars/util/error.h"
#include "mars/util/hash.h"
#include "mars/util/logging.h"

namespace mars::serve {
namespace {

constexpr long long kCacheFormat = 1;

/// FNV-1a over the canonical text of each field. The separator and the
/// number-to-text formats are part of the cache file format: the hash
/// names the files, so changing either orphans every existing entry.
class Fnv1a {
 public:
  void mix(const std::string& text) {
    // Separate fields so ("ab", "c") and ("a", "bc") differ.
    hash_ = util::fnv1a(kFieldSeparator, util::fnv1a(text, hash_));
  }

  void mix(long long value) { mix(std::to_string(value)); }
  void mix(bool value) { mix(std::string(value ? "t" : "f")); }

  void mix(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    mix(std::string(buffer));
  }

  [[nodiscard]] std::string hex() const { return util::hex64(hash_); }

 private:
  static constexpr std::string_view kFieldSeparator{"\x1f", 1};
  std::uint64_t hash_ = util::kFnvOffset;
};

}  // namespace

std::string search_spec(const plan::SearchEngine& engine,
                        const plan::Budget& budget,
                        topology::AccMask placement) {
  std::ostringstream os;
  os << engine.spec_string();
  // A budget changes what the search returns, so it is part of the cache
  // identity. Wall-clock budgets are non-reproducible, but cache reuse of
  // one is exactly the point: search once under the time cap, reload after.
  if (budget.max_evaluations > 0) os << ";evals=" << budget.max_evaluations;
  if (budget.wall_clock.count() > 0.0) {
    os << ";wall_ms=" << budget.wall_clock.millis();
  }
  // Placement-confined searches (comap slices) get their own identity;
  // full-fleet searches keep their historical fingerprint unchanged.
  if (placement != 0) os << ";placement=" << std::hex << placement;
  return os.str();
}

MappingCache::MappingCache(std::string dir)
    : dir_(std::move(dir)),
      hits_(&metrics_.counter("serve.cache.hits")),
      misses_(&metrics_.counter("serve.cache.misses")),
      corrupt_(&metrics_.counter("serve.cache.corrupt")),
      stores_(&metrics_.counter("serve.cache.stores")) {
  MARS_CHECK_ARG(!dir_.empty(), "mapping cache needs a directory path");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  MARS_CHECK_ARG(!ec, "cannot create mapping cache directory '"
                          << dir_ << "': " << ec.message());
  MARS_CHECK_ARG(std::filesystem::is_directory(dir_, ec),
                 "mapping cache path '" << dir_ << "' is not a directory");
}

MappingCache::~MappingCache() {
  if (obs::MetricsRegistry* global = obs::metrics()) {
    metrics_.flush_to(*global);
  }
}

std::string MappingCache::fingerprint(const topology::Topology& topo,
                                      const accel::DesignRegistry& designs,
                                      bool adaptive,
                                      const std::string& search_spec) {
  Fnv1a fnv;
  fnv.mix(topo.name());
  fnv.mix(static_cast<long long>(topo.size()));
  for (topology::AccId a = 0; a < topo.size(); ++a) {
    const topology::Accelerator& acc = topo.accelerator(a);
    fnv.mix(acc.name);
    fnv.mix(acc.dram.count());
    fnv.mix(acc.host_bw.bits_per_second());
    fnv.mix(static_cast<long long>(acc.fixed_design));
    for (topology::AccId b = a + 1; b < topo.size(); ++b) {
      fnv.mix(topo.link(a, b).bits_per_second());
    }
  }
  fnv.mix(static_cast<long long>(designs.size()));
  for (accel::DesignId id : designs.ids()) {
    const accel::AcceleratorDesign& design = designs.design(id);
    fnv.mix(design.name());
    fnv.mix(design.frequency().hertz());
    fnv.mix(design.peak_macs_per_cycle());
    fnv.mix(static_cast<long long>(design.pe_count()));
    fnv.mix(design.parameter_string());
    fnv.mix(design.dram_bytes_per_cycle());
    fnv.mix(design.area_cost());
    fnv.mix(design.energy_per_mac().count());
  }
  fnv.mix(adaptive);
  fnv.mix(search_spec);
  return fnv.hex();
}

std::optional<MappingCache::Key> MappingCache::key(
    const std::string& model, const core::Problem& problem,
    const plan::SearchEngine& engine, const plan::Budget& budget) {
  if (!engine.searches()) return std::nullopt;
  return Key{model, fingerprint(*problem.topo, *problem.designs,
                                problem.adaptive,
                                search_spec(engine, budget, problem.placement))};
}

std::string MappingCache::path_for(const Key& key) const {
  return (std::filesystem::path(dir_) /
          (key.model + "-" + key.fingerprint + ".json"))
      .string();
}

std::optional<core::Mapping> MappingCache::load(
    const Key& key, const core::Problem& problem) const {
  const std::string path = path_for(key);
  std::ifstream file(path);
  if (!file) {
    misses_->add();  // plain miss: no entry for this key
    return std::nullopt;
  }
  std::ostringstream content;
  content << file.rdbuf();
  try {
    const JsonValue entry = JsonValue::parse(content.str());
    if (entry.get("format").as_integer() != kCacheFormat ||
        entry.get("model").as_string() != key.model ||
        entry.get("fingerprint").as_string() != key.fingerprint) {
      MARS_WARN << "mapping cache entry " << path
                << " does not match its key; ignoring";
      misses_->add();
      corrupt_->add();
      return std::nullopt;
    }
    core::Mapping mapping = core::mapping_from_json(
        entry.get("mapping"), *problem.spine, *problem.topo, *problem.designs,
        problem.adaptive);
    hits_->add();
    MARS_INFO << "mapping cache hit for '" << key.model << "' (" << path
              << "), search skipped";
    return mapping;
  } catch (const std::exception& e) {
    MARS_WARN << "mapping cache entry " << path
              << " is unreadable (treated as a miss): " << e.what();
    misses_->add();
    corrupt_->add();
    return std::nullopt;
  }
}

void MappingCache::store_searched(const Key& key, const core::Mapping& mapping,
                                  const plan::Provenance& provenance,
                                  const core::Problem& problem) const {
  if (provenance.stopped == plan::StopReason::kCancelled) return;
  const std::string path = path_for(key);
  try {
    JsonValue entry = JsonValue::object();
    entry.set("format", JsonValue::integer(kCacheFormat));
    entry.set("model", JsonValue::string(key.model));
    entry.set("fingerprint", JsonValue::string(key.fingerprint));
    entry.set("mapping", core::to_json(mapping, *problem.spine,
                                       *problem.designs, problem.adaptive));
    // Write-then-rename so a concurrent reader never sees a torn file; the
    // tmp name carries the pid so concurrent cold-starting processes never
    // interleave writes into the same tmp file (last rename wins whole).
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
    {
      std::ofstream file(tmp);
      MARS_CHECK(file.good(), "cannot write mapping cache file " << tmp);
      file << entry.dump() << '\n';
      MARS_CHECK(file.good(), "short write to mapping cache file " << tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    MARS_CHECK(!ec, "cannot move mapping cache file into place at "
                        << path << ": " << ec.message());
  } catch (const std::exception& e) {
    MARS_WARN << "mapping cache store failed for '" << key.model
              << "' (the searched mapping is kept, uncached): " << e.what();
    return;
  }
  stores_->add();
  MARS_INFO << "mapping cache miss for '" << key.model << "'; stored " << path;
}

}  // namespace mars::serve
