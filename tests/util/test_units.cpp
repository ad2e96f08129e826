#include "mars/util/units.h"

#include <gtest/gtest.h>

#include <sstream>

namespace mars {
namespace {

TEST(Bytes, ConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(kibibytes(1.0).count(), 1024.0);
  EXPECT_DOUBLE_EQ(mebibytes(1.0).count(), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(gibibytes(1.0).count(), 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(gibibytes(2.0).gib(), 2.0);
  EXPECT_DOUBLE_EQ(mebibytes(3.0).mib(), 3.0);
  EXPECT_DOUBLE_EQ(kibibytes(5.0).kib(), 5.0);
}

TEST(Bytes, Arithmetic) {
  const Bytes a(100.0);
  const Bytes b(50.0);
  EXPECT_DOUBLE_EQ((a + b).count(), 150.0);
  EXPECT_DOUBLE_EQ((a - b).count(), 50.0);
  EXPECT_DOUBLE_EQ((a * 2.0).count(), 200.0);
  EXPECT_DOUBLE_EQ((2.0 * a).count(), 200.0);
  EXPECT_DOUBLE_EQ((a / 4.0).count(), 25.0);
  EXPECT_DOUBLE_EQ(a / b, 2.0);
}

TEST(Bytes, CompoundAssignmentAndComparison) {
  Bytes a(10.0);
  a += Bytes(5.0);
  EXPECT_DOUBLE_EQ(a.count(), 15.0);
  a -= Bytes(10.0);
  EXPECT_DOUBLE_EQ(a.count(), 5.0);
  EXPECT_LT(Bytes(1.0), Bytes(2.0));
  EXPECT_EQ(Bytes(3.0), Bytes(3.0));
}

TEST(Seconds, Conversions) {
  EXPECT_DOUBLE_EQ(milliseconds(1.5).count(), 0.0015);
  EXPECT_DOUBLE_EQ(microseconds(2.0).count(), 2e-6);
  EXPECT_DOUBLE_EQ(Seconds(0.25).millis(), 250.0);
  EXPECT_DOUBLE_EQ(Seconds(0.25).micros(), 250000.0);
}

TEST(Seconds, ArithmeticAndFinite) {
  const Seconds a(1.0);
  const Seconds b(0.5);
  EXPECT_DOUBLE_EQ((a + b).count(), 1.5);
  EXPECT_DOUBLE_EQ((a - b).count(), 0.5);
  EXPECT_DOUBLE_EQ((a * 3.0).count(), 3.0);
  EXPECT_DOUBLE_EQ((a / 2.0).count(), 0.5);
  EXPECT_DOUBLE_EQ(a / b, 2.0);
  EXPECT_TRUE(a.finite());
  EXPECT_FALSE(Seconds(std::numeric_limits<double>::infinity()).finite());
}

TEST(Bandwidth, TransferTime) {
  // 8 Gb/s moves one gigabyte in one second.
  const Bandwidth bw = gbps(8.0);
  EXPECT_DOUBLE_EQ(bw.bytes_per_second(), 1e9);
  EXPECT_DOUBLE_EQ(bw.transfer_time(Bytes(1e9)).count(), 1.0);
  EXPECT_DOUBLE_EQ(bw.transfer_time(Bytes(0.0)).count(), 0.0);
}

TEST(Bandwidth, UnitsAndScaling) {
  EXPECT_DOUBLE_EQ(gbps(2.0).gbps(), 2.0);
  EXPECT_DOUBLE_EQ(mbps(1500.0).gbps(), 1.5);
  EXPECT_DOUBLE_EQ((gbps(4.0) / 2.0).gbps(), 2.0);
  EXPECT_DOUBLE_EQ((gbps(4.0) * 2.0).gbps(), 8.0);
  EXPECT_LT(gbps(1.0), gbps(2.0));
}

TEST(Bandwidth, ZeroBandwidthTransferThrows) {
  EXPECT_THROW((void)Bandwidth(0.0).transfer_time(Bytes(1.0)), InvalidArgument);
}

TEST(Frequency, CyclesToTime) {
  const Frequency f = megahertz(200.0);
  EXPECT_DOUBLE_EQ(f.megahertz(), 200.0);
  // 200k cycles at 200 MHz = 1 ms.
  EXPECT_DOUBLE_EQ(f.time_for(200000.0).millis(), 1.0);
}

TEST(Frequency, ZeroFrequencyThrows) {
  EXPECT_THROW((void)Frequency(0.0).time_for(1.0), InvalidArgument);
}

TEST(UnitsPrinting, HumanReadable) {
  std::ostringstream os;
  os << gibibytes(2.0) << '|' << milliseconds(3.0) << '|' << gbps(8.0) << '|'
     << megahertz(200.0);
  EXPECT_EQ(os.str(), "2 GiB|3 ms|8 Gb/s|200 MHz");
}

TEST(UnitsPrinting, SmallQuantities) {
  std::ostringstream os;
  os << Bytes(12.0) << '|' << kibibytes(4.0) << '|' << microseconds(7.0);
  EXPECT_EQ(os.str(), "12 B|4 KiB|7 us");
}

TEST(ErrorMacros, CheckArgThrowsInvalidArgument) {
  EXPECT_THROW(MARS_CHECK_ARG(false, "boom"), InvalidArgument);
  EXPECT_NO_THROW(MARS_CHECK_ARG(true, "fine"));
}

TEST(Joules, ConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(millijoules(250.0).count(), 0.25);
  EXPECT_DOUBLE_EQ(picojoules(3.0).count(), 3e-12);
  EXPECT_DOUBLE_EQ(Joules(0.5).millijoules(), 500.0);
  EXPECT_DOUBLE_EQ(picojoules(40.0).picojoules(), 40.0);
  EXPECT_DOUBLE_EQ(Joules().count(), 0.0);
}

TEST(Joules, ArithmeticAndComparison) {
  Joules a(2.0);
  a += Joules(1.0);
  EXPECT_DOUBLE_EQ(a.count(), 3.0);
  a -= Joules(0.5);
  EXPECT_DOUBLE_EQ(a.count(), 2.5);
  EXPECT_DOUBLE_EQ((Joules(2.0) + Joules(3.0)).count(), 5.0);
  EXPECT_DOUBLE_EQ((Joules(2.0) - Joules(3.0)).count(), -1.0);
  EXPECT_DOUBLE_EQ((Joules(2.0) * 3.0).count(), 6.0);
  EXPECT_DOUBLE_EQ((3.0 * Joules(2.0)).count(), 6.0);
  EXPECT_DOUBLE_EQ((Joules(6.0) / 3.0).count(), 2.0);
  EXPECT_DOUBLE_EQ(Joules(6.0) / Joules(3.0), 2.0);
  EXPECT_LT(picojoules(1.0), picojoules(2.0));
  EXPECT_EQ(Joules(1.0), Joules(1.0));
}

TEST(Joules, StreamsAtTheRightTier) {
  std::ostringstream j, mj, pj;
  j << Joules(2.5);
  EXPECT_EQ(j.str(), "2.5 J");
  mj << millijoules(250.0);
  EXPECT_EQ(mj.str(), "250 mJ");
  pj << picojoules(40.0);
  EXPECT_EQ(pj.str(), "40 pJ");
}

TEST(ErrorMacros, CheckThrowsInternalError) {
  EXPECT_THROW(MARS_CHECK(false, "bug"), InternalError);
  EXPECT_NO_THROW(MARS_CHECK(true, "fine"));
}

TEST(ErrorMacros, MessageCarriesLocationAndText) {
  try {
    MARS_CHECK_ARG(1 == 2, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "value was 42");
    EXPECT_NE(e.origin().find("1 == 2"), std::string::npos);
    EXPECT_NE(e.origin().find("test_units.cpp"), std::string::npos);
  }
  try {
    MARS_CHECK_ARG(1 == 2, "");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "1 == 2");
  }
  try {
    MARS_CHECK(1 == 2, "bug");
    FAIL() << "expected throw";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_units.cpp"), std::string::npos);
  }
}

}  // namespace
}  // namespace mars
