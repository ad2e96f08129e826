#include "mars/serve/batcher.h"

#include "mars/util/error.h"
#include "mars/util/strings.h"

namespace mars::serve {

namespace {

// to_string() prints spec times in ms at 1 us resolution. Inside this
// range every time prints to a spec that parses back to the same print.
constexpr double kMinSpecMs = 0.001;
constexpr double kMaxSpecMs = 1e9;

}  // namespace

BatchPolicy BatchPolicy::none() { return BatchPolicy{}; }

BatchPolicy BatchPolicy::size(int n) {
  MARS_CHECK_ARG(n >= 1, "size-N batching needs N >= 1, got " << n);
  BatchPolicy policy;
  policy.kind = Kind::kSize;
  policy.max_batch = n;
  return policy;
}

BatchPolicy BatchPolicy::with_timeout(int max_batch, Seconds timeout) {
  MARS_CHECK_ARG(max_batch >= 1,
                 "timeout batching needs a size cap >= 1, got " << max_batch);
  MARS_CHECK_ARG(timeout.count() >= 0.0, "batching timeout must be >= 0");
  BatchPolicy policy;
  policy.kind = Kind::kTimeout;
  policy.max_batch = max_batch;
  policy.timeout = timeout;
  return policy;
}

BatchPolicy BatchPolicy::parse(const std::string& spec) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() == 1 && parts[0] == "none") return none();
  if (parts.size() == 2 && parts[0] == "size") {
    if (const std::optional<int> n = parse_int(parts[1])) return size(*n);
  }
  if ((parts.size() == 2 || parts.size() == 3) && parts[0] == "timeout") {
    const std::optional<double> timeout_ms = parse_double(parts[1]);
    const std::optional<int> cap =
        parts.size() == 2 ? std::optional(8) : parse_int(parts[2]);
    if (timeout_ms && cap) {
      MARS_CHECK_ARG(*timeout_ms <= kMaxSpecMs,
                     "batching timeout must be at most 1e9 ms, got '"
                         << parts[1] << "'");
      return with_timeout(*cap, milliseconds(*timeout_ms));
    }
  }
  throw InvalidArgument("bad batching policy '" + spec +
                        "' (use none | size:N | timeout:MS[:N])");
}

std::string BatchPolicy::to_string() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kSize:
      return "size:" + std::to_string(max_batch);
    case Kind::kTimeout:
      return "timeout:" + format_double(timeout.millis(), 3) + ":" +
             std::to_string(max_batch);
  }
  return "?";
}

AdmissionPolicy AdmissionPolicy::none() { return AdmissionPolicy{}; }

AdmissionPolicy AdmissionPolicy::slo_aware(Seconds slo) {
  MARS_CHECK_ARG(slo.count() > 0.0, "slo admission needs a positive budget");
  AdmissionPolicy policy;
  policy.kind = Kind::kSlo;
  policy.slo = slo;
  return policy;
}

AdmissionPolicy AdmissionPolicy::shed(int max_depth) {
  MARS_CHECK_ARG(max_depth >= 1,
                 "shed-N admission needs N >= 1, got " << max_depth);
  AdmissionPolicy policy;
  policy.kind = Kind::kShed;
  policy.max_depth = max_depth;
  return policy;
}

AdmissionPolicy AdmissionPolicy::parse(const std::string& spec) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() == 1 && parts[0] == "none") return none();
  if (parts.size() == 2 && parts[0] == "slo") {
    if (const std::optional<double> ms = parse_double(parts[1])) {
      MARS_CHECK_ARG(*ms >= kMinSpecMs && *ms <= kMaxSpecMs,
                     "slo admission budget must be in [0.001, 1e9] ms, got '"
                         << parts[1] << "'");
      return slo_aware(milliseconds(*ms));
    }
  }
  if (parts.size() == 2 && parts[0] == "shed") {
    if (const std::optional<int> depth = parse_int(parts[1])) {
      return shed(*depth);
    }
  }
  throw InvalidArgument("bad admission policy '" + spec +
                        "' (use none | slo:MS | shed:N)");
}

std::string AdmissionPolicy::to_string() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kSlo:
      return "slo:" + format_double(slo.millis(), 3);
    case Kind::kShed:
      return "shed:" + std::to_string(max_depth);
  }
  return "?";
}

PolicySpec PolicySpec::parse(const std::string& spec) {
  PolicySpec out;
  bool saw_batch = false;
  bool saw_admission = false;
  for (const std::string& part : split(spec, '+')) {
    const std::string head = split(part, ':')[0];
    if (head == "slo" || head == "shed") {
      MARS_CHECK_ARG(!saw_admission, "policy '" << spec
                                                << "' names two admission "
                                                   "policies");
      out.admission = AdmissionPolicy::parse(part);
      saw_admission = true;
    } else {
      MARS_CHECK_ARG(!saw_batch,
                     "policy '" << spec << "' names two batching policies");
      out.batch = BatchPolicy::parse(part);
      saw_batch = true;
    }
  }
  return out;
}

std::string PolicySpec::to_string() const {
  if (admission.kind == AdmissionPolicy::Kind::kNone) return batch.to_string();
  if (batch.kind == BatchPolicy::Kind::kNone) return admission.to_string();
  return batch.to_string() + "+" + admission.to_string();
}

Batcher::Batcher(BatchPolicy policy) : policy_(policy) {}

void Batcher::close_open() {
  if (open_.empty()) return;
  ready_.push_back(std::move(open_));
  open_.clear();
}

void Batcher::push(const Request& request) {
  MARS_CHECK_ARG(open_.empty() || request.arrival >= open_.back().arrival,
                 "requests must be pushed in arrival order");
  switch (policy_.kind) {
    case BatchPolicy::Kind::kNone:
      ready_.push_back({request});
      break;
    case BatchPolicy::Kind::kSize:
      open_.push_back(request);
      if (static_cast<int>(open_.size()) >= policy_.max_batch) close_open();
      break;
    case BatchPolicy::Kind::kTimeout:
      if (open_.empty()) open_deadline_ = request.arrival + policy_.timeout;
      open_.push_back(request);
      if (static_cast<int>(open_.size()) >= policy_.max_batch) close_open();
      break;
  }
}

std::vector<std::vector<Request>> Batcher::pop_ready(Seconds now) {
  if (policy_.kind == BatchPolicy::Kind::kTimeout && !open_.empty() &&
      open_deadline_ <= now) {
    close_open();
  }
  std::vector<std::vector<Request>> out = std::move(ready_);
  ready_.clear();
  return out;
}

std::optional<Seconds> Batcher::next_deadline() const {
  if (policy_.kind != BatchPolicy::Kind::kTimeout || open_.empty()) {
    return std::nullopt;
  }
  return open_deadline_;
}

std::vector<std::vector<Request>> Batcher::flush() {
  close_open();
  std::vector<std::vector<Request>> out = std::move(ready_);
  ready_.clear();
  return out;
}

int Batcher::pending() const {
  int count = static_cast<int>(open_.size());
  for (const std::vector<Request>& batch : ready_) {
    count += static_cast<int>(batch.size());
  }
  return count;
}

}  // namespace mars::serve
