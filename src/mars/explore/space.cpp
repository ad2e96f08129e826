#include "mars/explore/space.h"

#include <algorithm>
#include <sstream>

#include "mars/topology/presets.h"
#include "mars/util/error.h"
#include "mars/util/strings.h"

namespace mars::explore {
namespace {

constexpr const char* kFamilies[] = {"clique", "ring", "grouped2"};
// Host bandwidth for the generated families: the F1 tier (2 Gb/s). The
// host path is baseline infrastructure, identical for every point, so it
// is not a search axis and does not enter the hardware cost.
constexpr double kHostGbps = 2.0;

bool known_family(const std::string& name) {
  for (const char* family : kFamilies) {
    if (name == family) return true;
  }
  return false;
}

std::string format_gbps(double gbps) { return format_double(gbps, 6); }
// format_gbps prints every digit of a tier up to here; past it the print
// no longer parses back to the same tier.
constexpr double kMaxGbps = 1e6;

/// Expands one `menus` token into concrete design-name lists.
std::vector<std::vector<std::string>> expand_menu_token(const std::string& token) {
  const std::vector<std::string>& names = accel::table2_design_names();
  if (token == "full") return {names};
  if (token == "solo") {
    std::vector<std::vector<std::string>> out;
    for (const std::string& name : names) out.push_back({name});
    return out;
  }
  if (token == "pairs") {
    std::vector<std::vector<std::string>> out;
    for (std::size_t a = 0; a < names.size(); ++a) {
      for (std::size_t b = a + 1; b < names.size(); ++b) {
        out.push_back({names[a], names[b]});
      }
    }
    return out;
  }
  // Explicit '+'-joined design list, canonicalised to registry order.
  std::vector<std::string> menu;
  for (const std::string& name : split(token, '+')) {
    const bool known = std::find(names.begin(), names.end(), name) != names.end();
    MARS_CHECK_ARG(known, "design space menus must be full, solo, pairs or a "
                          "'+'-joined list of designs ("
                              << join(names, ", ") << "), got '" << name
                              << "'");
    MARS_CHECK_ARG(std::find(menu.begin(), menu.end(), name) == menu.end(),
                   "design space menu lists design '" << name << "' twice");
    menu.push_back(name);
  }
  std::sort(menu.begin(), menu.end(), [&](const std::string& a, const std::string& b) {
    return std::find(names.begin(), names.end(), a) <
           std::find(names.begin(), names.end(), b);
  });
  return {menu};
}

}  // namespace

std::string HardwarePoint::spec() const {
  std::ostringstream os;
  os << family << ":" << accelerators << "@" << format_gbps(link_gbps) << "/"
     << join(menu, "+");
  return os.str();
}

DesignSpace DesignSpace::default_space() {
  return parse("families=clique,ring,grouped2;accs=2,4,8;bw=2,8,16;menus=full,solo");
}

DesignSpace DesignSpace::parse(const std::string& text) {
  DesignSpace space;
  std::vector<std::string> menu_tokens;
  for (const std::string& clause : split(text, ';')) {
    if (clause.empty()) continue;
    const std::size_t eq = clause.find('=');
    MARS_CHECK_ARG(eq != std::string::npos,
                   "design space clause must be axis=value[,value...], got '"
                       << clause << "'");
    const std::string axis = clause.substr(0, eq);
    const std::vector<std::string> values = split(clause.substr(eq + 1), ',');
    MARS_CHECK_ARG(!values.empty() && !values.front().empty(),
                   "design space axis '" << axis << "' has no values");
    if (axis == "families") {
      for (const std::string& value : values) {
        MARS_CHECK_ARG(known_family(value),
                       "design space families must be clique, ring or grouped2, "
                       "got '" << value << "'");
        if (std::find(space.families_.begin(), space.families_.end(), value) ==
            space.families_.end()) {
          space.families_.push_back(value);
        }
      }
    } else if (axis == "accs") {
      for (const std::string& value : values) {
        const std::optional<int> n = parse_int(value);
        MARS_CHECK_ARG(n && *n >= 2 && *n <= 32,
                       "design space accs must be an integer in [2, 32], got '"
                           << value << "'");
        if (std::find(space.accs_.begin(), space.accs_.end(), *n) ==
            space.accs_.end()) {
          space.accs_.push_back(*n);
        }
      }
    } else if (axis == "bw") {
      for (const std::string& value : values) {
        // A tier is read as the value the spec prints, so the spec parses
        // back to itself and no two tiers print alike.
        std::optional<double> gbps = parse_double(value);
        if (gbps && *gbps <= kMaxGbps) gbps = parse_double(format_gbps(*gbps));
        MARS_CHECK_ARG(gbps && *gbps > 0.0 && *gbps <= kMaxGbps,
                       "design space bw must be a positive Gb/s value, got '"
                           << value << "' (at most 1e6, to 6 decimals)");
        if (std::find(space.bw_gbps_.begin(), space.bw_gbps_.end(), *gbps) ==
            space.bw_gbps_.end()) {
          space.bw_gbps_.push_back(*gbps);
        }
      }
    } else if (axis == "menus") {
      for (const std::string& value : values) menu_tokens.push_back(value);
    } else {
      MARS_CHECK_ARG(false,
                     "design space axis must be families, accs, bw or menus, "
                     "got '" << axis << "'");
    }
  }

  // Unset axes inherit the default grid.
  if (space.families_.empty()) {
    space.families_ = {"clique", "ring", "grouped2"};
  }
  if (space.accs_.empty()) space.accs_ = {2, 4, 8};
  if (space.bw_gbps_.empty()) space.bw_gbps_ = {2.0, 8.0, 16.0};
  if (menu_tokens.empty()) menu_tokens = {"full", "solo"};
  for (const std::string& token : menu_tokens) {
    for (std::vector<std::string>& menu : expand_menu_token(token)) {
      if (std::find(space.menus_.begin(), space.menus_.end(), menu) ==
          space.menus_.end()) {
        space.menus_.push_back(std::move(menu));
      }
    }
  }

  const bool has_grouped2 =
      std::find(space.families_.begin(), space.families_.end(), "grouped2") !=
      space.families_.end();
  if (has_grouped2) {
    for (const int n : space.accs_) {
      MARS_CHECK_ARG(n % 2 == 0,
                     "design space family grouped2 requires even accs, got "
                         << n);
    }
  }

  // Canonical spec: axes in fixed order, values in parsed order.
  {
    std::ostringstream os;
    os << "families=" << join(space.families_, ",");
    os << ";accs=";
    for (std::size_t i = 0; i < space.accs_.size(); ++i) {
      os << (i ? "," : "") << space.accs_[i];
    }
    os << ";bw=";
    for (std::size_t i = 0; i < space.bw_gbps_.size(); ++i) {
      os << (i ? "," : "") << format_gbps(space.bw_gbps_[i]);
    }
    os << ";menus=";
    for (std::size_t i = 0; i < space.menus_.size(); ++i) {
      os << (i ? "," : "") << join(space.menus_[i], "+");
    }
    space.spec_ = os.str();
  }

  // Presets first (the paper's F1 platform and the Table IV cloud
  // clique, full menu), then the cartesian grid row-major.
  const std::vector<std::string>& full_menu = accel::table2_design_names();
  space.points_.push_back({"f1", 8, 8.0, full_menu, true});
  space.points_.push_back({"clique", 8, 4.0, full_menu, true});
  space.num_presets_ = static_cast<int>(space.points_.size());
  for (const std::string& family : space.families_) {
    for (const int accs : space.accs_) {
      for (const double bw : space.bw_gbps_) {
        for (const std::vector<std::string>& menu : space.menus_) {
          space.points_.push_back({family, accs, bw, menu, false});
        }
      }
    }
  }
  return space;
}

std::array<int, 4> DesignSpace::dims() const {
  return {static_cast<int>(families_.size()), static_cast<int>(accs_.size()),
          static_cast<int>(bw_gbps_.size()), static_cast<int>(menus_.size())};
}

int DesignSpace::index_of(const std::array<int, 4>& coords) const {
  const std::array<int, 4> d = dims();
  for (int axis = 0; axis < 4; ++axis) {
    MARS_CHECK_ARG(coords[axis] >= 0 && coords[axis] < d[axis],
                   "design space coordinate " << axis << " out of range");
  }
  const int cartesian =
      ((coords[0] * d[1] + coords[1]) * d[2] + coords[2]) * d[3] + coords[3];
  return num_presets_ + cartesian;
}

std::array<int, 4> DesignSpace::coords_of(int index) const {
  MARS_CHECK_ARG(index >= num_presets_ &&
                     index < static_cast<int>(points_.size()),
                 "coords_of on non-cartesian point index " << index);
  const std::array<int, 4> d = dims();
  int rest = index - num_presets_;
  std::array<int, 4> coords{};
  coords[3] = rest % d[3];
  rest /= d[3];
  coords[2] = rest % d[2];
  rest /= d[2];
  coords[1] = rest % d[1];
  rest /= d[1];
  coords[0] = rest;
  return coords;
}

BuiltPoint DesignSpace::build(const HardwarePoint& point) const {
  BuiltPoint built;
  if (point.family == "f1") {
    built.topo = topology::f1_16xlarge();
  } else if (point.family == "clique") {
    built.topo = topology::fully_connected(point.accelerators,
                                           gbps(point.link_gbps), gbps(kHostGbps));
  } else if (point.family == "ring") {
    built.topo = topology::ring(point.accelerators, gbps(point.link_gbps),
                                gbps(kHostGbps));
  } else if (point.family == "grouped2") {
    built.topo = topology::grouped(2, point.accelerators / 2,
                                   gbps(point.link_gbps), gbps(kHostGbps));
  } else {
    MARS_CHECK_ARG(false, "unknown hardware family '" << point.family << "'");
  }
  for (const std::string& name : point.menu) {
    built.designs.add(accel::make_table2_design(name));
  }
  return built;
}

}  // namespace mars::explore
