#include <gtest/gtest.h>

#include "mars/serve/batcher.h"
#include "mars/util/error.h"

namespace mars::serve {
namespace {

Request at(int id, double seconds, int model = 0) {
  Request request;
  request.id = id;
  request.model = model;
  request.arrival = Seconds(seconds);
  return request;
}

TEST(BatchPolicy, ParseRoundTrips) {
  EXPECT_EQ(BatchPolicy::parse("none").kind, BatchPolicy::Kind::kNone);
  const BatchPolicy size = BatchPolicy::parse("size:6");
  EXPECT_EQ(size.kind, BatchPolicy::Kind::kSize);
  EXPECT_EQ(size.max_batch, 6);
  const BatchPolicy timeout = BatchPolicy::parse("timeout:2.5:16");
  EXPECT_EQ(timeout.kind, BatchPolicy::Kind::kTimeout);
  EXPECT_EQ(timeout.max_batch, 16);
  EXPECT_DOUBLE_EQ(timeout.timeout.millis(), 2.5);
  // Default size cap.
  EXPECT_EQ(BatchPolicy::parse("timeout:1").max_batch, 8);

  for (const char* spec : {"none", "size:6", "timeout:2.5:16"}) {
    EXPECT_EQ(BatchPolicy::parse(BatchPolicy::parse(spec).to_string())
                  .to_string(),
              BatchPolicy::parse(spec).to_string());
  }
}

TEST(BatchPolicy, ParseRejectsGarbage) {
  for (const char* spec :
       {"", "sized", "size", "size:0", "size:x", "size:4x", "timeout",
        "timeout:-1", "timeout:2ms:8", "timeout:1:0", "timeout:1:2:3",
        "none:1", "timeout:0x1", "timeout:nan", "size:+4", "size: 4",
        "timeout:1:0x8", "timeout:6e90"}) {
    EXPECT_THROW((void)BatchPolicy::parse(spec), InvalidArgument) << spec;
  }
}

TEST(Batcher, NonePolicyDispatchesEachRequestAlone) {
  Batcher batcher(BatchPolicy::none());
  batcher.push(at(0, 0.0));
  batcher.push(at(1, 0.0));
  const auto batches = batcher.pop_ready(Seconds(0.0));
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 1u);
  EXPECT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batcher.pending(), 0);
}

TEST(Batcher, SizePolicyClosesAtN) {
  Batcher batcher(BatchPolicy::size(3));
  batcher.push(at(0, 0.0));
  batcher.push(at(1, 0.1));
  EXPECT_TRUE(batcher.pop_ready(Seconds(0.1)).empty());
  EXPECT_EQ(batcher.pending(), 2);
  batcher.push(at(2, 0.2));
  const auto batches = batcher.pop_ready(Seconds(0.2));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 3u);
  EXPECT_EQ(batches[0][2].id, 2);
  EXPECT_EQ(batcher.pending(), 0);
}

TEST(Batcher, FlushDrainsPartialBatch) {
  Batcher batcher(BatchPolicy::size(4));
  batcher.push(at(0, 0.0));
  batcher.push(at(1, 0.1));
  const auto batches = batcher.flush();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(batcher.pending(), 0);
  EXPECT_TRUE(batcher.flush().empty());
}

TEST(Batcher, TimeoutPolicyFiresAtDeadline) {
  Batcher batcher(BatchPolicy::with_timeout(8, milliseconds(5.0)));
  batcher.push(at(0, 0.0));
  ASSERT_TRUE(batcher.next_deadline().has_value());
  EXPECT_DOUBLE_EQ(batcher.next_deadline()->millis(), 5.0);
  EXPECT_TRUE(batcher.pop_ready(milliseconds(4.9)).empty());
  const auto batches = batcher.pop_ready(milliseconds(5.0));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 1u);
  EXPECT_FALSE(batcher.next_deadline().has_value());
}

TEST(Batcher, TimeoutDeadlineAnchorsToOldestRequest) {
  Batcher batcher(BatchPolicy::with_timeout(8, milliseconds(5.0)));
  batcher.push(at(0, 0.001));
  batcher.push(at(1, 0.004));
  // The second arrival does not extend the first's deadline.
  EXPECT_DOUBLE_EQ(batcher.next_deadline()->millis(), 6.0);
  const auto batches = batcher.pop_ready(milliseconds(6.0));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 2u);
}

TEST(Batcher, TimeoutSizeCapClosesEarly) {
  Batcher batcher(BatchPolicy::with_timeout(2, milliseconds(50.0)));
  batcher.push(at(0, 0.0));
  batcher.push(at(1, 0.001));
  const auto batches = batcher.pop_ready(milliseconds(1.0));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 2u);
}

TEST(Batcher, RejectsOutOfOrderArrivals) {
  Batcher batcher(BatchPolicy::size(4));
  batcher.push(at(0, 1.0));
  EXPECT_THROW(batcher.push(at(1, 0.5)), InvalidArgument);
}

TEST(AdmissionPolicy, ParseRoundTrips) {
  EXPECT_EQ(AdmissionPolicy::parse("none").kind, AdmissionPolicy::Kind::kNone);
  const AdmissionPolicy slo = AdmissionPolicy::parse("slo:60");
  EXPECT_EQ(slo.kind, AdmissionPolicy::Kind::kSlo);
  EXPECT_DOUBLE_EQ(slo.slo.millis(), 60.0);
  const AdmissionPolicy shed = AdmissionPolicy::parse("shed:16");
  EXPECT_EQ(shed.kind, AdmissionPolicy::Kind::kShed);
  EXPECT_EQ(shed.max_depth, 16);

  for (const char* spec : {"none", "slo:60", "slo:2.5", "shed:16"}) {
    EXPECT_EQ(AdmissionPolicy::parse(AdmissionPolicy::parse(spec).to_string())
                  .to_string(),
              AdmissionPolicy::parse(spec).to_string());
  }
}

TEST(AdmissionPolicy, ParseRejectsGarbage) {
  for (const char* spec : {"", "slo", "slo:", "slo:0", "slo:-5", "slo:60ms",
                           "shed", "shed:0", "shed:-1", "shed:4x", "drop:3",
                           "none:1", "slo:60:1", "slo:inf", "slo:nan",
                           "slo:0x10", "shed:+4", "slo:1e-9", "slo:6e90"}) {
    EXPECT_THROW((void)AdmissionPolicy::parse(spec), InvalidArgument) << spec;
  }
}

TEST(PolicySpec, ParsesBothFamiliesFromOneSpec) {
  const PolicySpec both = PolicySpec::parse("size:4+slo:60");
  EXPECT_EQ(both.batch.kind, BatchPolicy::Kind::kSize);
  EXPECT_EQ(both.batch.max_batch, 4);
  EXPECT_EQ(both.admission.kind, AdmissionPolicy::Kind::kSlo);
  EXPECT_DOUBLE_EQ(both.admission.slo.millis(), 60.0);

  // Order-independent; a single part lands in its own family.
  EXPECT_EQ(PolicySpec::parse("shed:8+timeout:2:4").to_string(),
            "timeout:2:4+shed:8");
  const PolicySpec admission_only = PolicySpec::parse("shed:8");
  EXPECT_EQ(admission_only.batch.kind, BatchPolicy::Kind::kNone);
  EXPECT_EQ(admission_only.admission.max_depth, 8);
  const PolicySpec batch_only = PolicySpec::parse("size:4");
  EXPECT_EQ(batch_only.admission.kind, AdmissionPolicy::Kind::kNone);
  EXPECT_EQ(PolicySpec::parse("none").to_string(), "none");
}

TEST(PolicySpec, RoundTripsThroughToString) {
  for (const char* spec :
       {"none", "size:4", "timeout:2:8", "slo:60", "shed:8", "size:4+slo:60",
        "timeout:2:8+shed:32"}) {
    EXPECT_EQ(PolicySpec::parse(spec).to_string(), spec) << spec;
  }
}

TEST(PolicySpec, RejectsDuplicateFamiliesAndGarbage) {
  for (const char* spec :
       {"size:4+size:8", "slo:60+shed:8", "none+size:4", "size:4+",
        "+slo:60", "bogus", ""}) {
    EXPECT_THROW((void)PolicySpec::parse(spec), InvalidArgument) << spec;
  }
}

}  // namespace
}  // namespace mars::serve
