// Tests for the observability layer: the streaming JSON writer
// (support/json.hpp), the metrics registry (support/metrics.hpp), and the
// to_json serializers of the result structs — including the determinism
// contract that serialized results are bit-identical at any job count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "core/flow.hpp"
#include "core/study.hpp"
#include "sim/kernels.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "trace/source.hpp"
#include "trace/synthetic.hpp"

namespace memopt {
namespace {

// ---------------------------------------------------------------- JsonWriter

MemTrace make_hot_trace(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.kind = SyntheticKind::Hotspot;
    spec.base.span_bytes = 1 << 14;
    spec.base.num_accesses = 3000;
    spec.base.seed = seed;
    spec.hot_fraction = 0.7;
    return materialize_synthetic(spec);
}

TEST(JsonWriter, BuildsCompleteDocument) {
    std::stringstream ss;
    JsonWriter w(ss, 0);
    w.begin_object();
    w.member("name", "fir");
    w.key("inner").begin_object();
    w.member("ok", true);
    w.end_object();
    w.key("list").begin_array();
    w.value(1).value(2);
    w.end_array();
    w.end_object();
    EXPECT_TRUE(w.complete());
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"name\": \"fir\""), std::string::npos);
    EXPECT_NE(doc.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(doc.find('['), std::string::npos);
}

TEST(JsonWriter, EscapesStringsPerRfc8259) {
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(JsonWriter::escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(JsonWriter::escape("tab\tnewline\n"), "tab\\tnewline\\n");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(JsonWriter::escape("\b\f\r"), "\\b\\f\\r");
}

TEST(JsonWriter, DoublesRoundTripThroughStrtod) {
    for (const double v : {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 6305987.25, 1e-300, 1e300}) {
        const std::string text = JsonWriter::format_double(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
    EXPECT_EQ(JsonWriter::format_double(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(JsonWriter::format_double(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(JsonWriter::format_double(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, EnforcesWellFormedness) {
    {
        std::stringstream ss;
        JsonWriter w(ss);
        w.begin_object();
        EXPECT_THROW(w.value(1), Error);  // value without a key
    }
    {
        std::stringstream ss;
        JsonWriter w(ss);
        w.begin_object();
        w.key("dangling");
        EXPECT_THROW(w.end_object(), Error);  // key without a value
    }
    {
        std::stringstream ss;
        JsonWriter w(ss);
        w.value(1);
        EXPECT_THROW(w.value(2), Error);  // second root
    }
    {
        std::stringstream ss;
        JsonWriter w(ss);
        EXPECT_THROW(w.key("k"), Error);  // key outside an object
    }
    {
        std::stringstream ss;
        JsonWriter w(ss);
        w.begin_array();
        EXPECT_THROW(w.end_object(), Error);  // mismatched close
    }
    {
        std::stringstream ss;
        JsonWriter w(ss);
        w.begin_object();
        w.member("k", 1);
        w.end_object();
        EXPECT_TRUE(w.complete());
        EXPECT_THROW(w.null(), Error);  // second root via null()
    }
}

// ------------------------------------------------------------------- Metrics

TEST(Metrics, CounterIsExactUnderConcurrency) {
    MetricCounter& counter = MetricsRegistry::instance().counter("test.concurrent_counter");
    counter.reset();
    constexpr std::size_t kIters = 20000;
    parallel_for(kIters, [&](std::size_t) { counter.add(); }, /*jobs=*/8);
    EXPECT_EQ(counter.value(), kIters);
}

TEST(Metrics, TimerAccumulatesUnderConcurrency) {
    MetricTimer& timer = MetricsRegistry::instance().timer("test.concurrent_timer");
    timer.reset();
    parallel_for(64, [&](std::size_t) { ScopedTimer scope(timer); }, /*jobs=*/8);
    EXPECT_EQ(timer.count(), 64u);
}

TEST(Metrics, ReferencesSurviveReset) {
    MetricCounter& a = MetricsRegistry::instance().counter("test.reset_me");
    a.add(5);
    MetricsRegistry::instance().reset();
    EXPECT_EQ(a.value(), 0u);
    // The same name must still resolve to the same (zeroed) entry.
    EXPECT_EQ(&MetricsRegistry::instance().counter("test.reset_me"), &a);
    a.add(2);
    EXPECT_EQ(a.value(), 2u);
}

TEST(Metrics, SnapshotSortedAndSerializable) {
    MetricCounter& snap_a = MetricsRegistry::instance().counter("test.snap_a");
    MetricCounter& snap_b = MetricsRegistry::instance().counter("test.snap_b");
    snap_a.reset();
    snap_b.reset();
    snap_b.add(2);
    snap_a.add(1);
    MetricsRegistry::instance().timer("test.snap_t").record(std::chrono::nanoseconds(1500));
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    ASSERT_GE(snap.counters.size(), 2u);
    for (std::size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);

    std::stringstream ss;
    JsonWriter w(ss);
    snap.to_json(w);
    EXPECT_TRUE(w.complete());
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"counters\""), std::string::npos);
    EXPECT_NE(doc.find("\"timers\""), std::string::npos);
    EXPECT_NE(doc.find("\"test.snap_a\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"total_ms\""), std::string::npos);
}

TEST(Metrics, InstrumentationNeverChangesFlowResults) {
    // The observability contract: running with metrics reset vs accumulated
    // state yields byte-identical serialized results.
    const MemTrace trace = make_hot_trace(3);
    FlowParams fp;
    fp.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(fp);
    MaterializedSource source(trace);

    const auto serialize = [&] {
        std::stringstream ss;
        JsonWriter w(ss);
        const FlowComparison cmp = flow.compare(source, ClusterMethod::Frequency);
        to_json(w, cmp);
        return ss.str();
    };
    const std::string first = serialize();
    MetricsRegistry::instance().reset();
    const std::string second = serialize();
    EXPECT_EQ(first, second);
}

// -------------------------------------------------------------- Serializers

TEST(Serializers, FlowComparisonSchemaAndJobInvariance) {
    std::vector<MemTrace> owned;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) owned.push_back(make_hot_trace(seed));
    std::vector<const MemTrace*> traces;
    for (const MemTrace& trace : owned) traces.push_back(&trace);
    FlowParams fp;
    fp.constraints.max_banks = 4;
    const MemoryOptimizationFlow flow(fp);

    const auto serialize_all = [&](std::size_t jobs) {
        std::stringstream ss;
        JsonWriter w(ss);
        w.begin_array();
        for (const FlowComparison& cmp : flow.compare_all(traces, ClusterMethod::Frequency, jobs))
            to_json(w, cmp);
        w.end_array();
        return ss.str();
    };
    const std::string serial = serialize_all(1);
    const std::string parallel = serialize_all(8);
    EXPECT_EQ(serial, parallel);  // the --json determinism contract

    EXPECT_NE(serial.find("\"monolithic\""), std::string::npos);
    EXPECT_NE(serial.find("\"partitioned\""), std::string::npos);
    EXPECT_NE(serial.find("\"clustered\""), std::string::npos);
    EXPECT_NE(serial.find("\"clustering_savings_pct\""), std::string::npos);
    EXPECT_NE(serial.find("\"banks\""), std::string::npos);
    EXPECT_NE(serial.find("\"total_pj\""), std::string::npos);
    EXPECT_NE(serial.find("\"components\""), std::string::npos);
}

TEST(Serializers, StudyReportCoversAllSections) {
    const StudyReport report = study_kernel(kernel_by_name("crc32"));
    std::stringstream ss;
    JsonWriter w(ss);
    to_json(w, report);
    EXPECT_TRUE(w.complete());
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"name\": \"crc32\""), std::string::npos);
    EXPECT_NE(doc.find("\"memory\""), std::string::npos);
    EXPECT_NE(doc.find("\"compression_baseline\""), std::string::npos);
    EXPECT_NE(doc.find("\"compression\""), std::string::npos);
    EXPECT_NE(doc.find("\"encoding\""), std::string::npos);
    EXPECT_NE(doc.find("\"traffic_ratio\""), std::string::npos);
    EXPECT_NE(doc.find("\"gates\""), std::string::npos);
    EXPECT_NE(doc.find("\"clustering_savings_pct\""), std::string::npos);
    EXPECT_NE(doc.find("\"compression_savings_pct\""), std::string::npos);
    EXPECT_NE(doc.find("\"encoding_reduction_pct\""), std::string::npos);
}

}  // namespace
}  // namespace memopt
