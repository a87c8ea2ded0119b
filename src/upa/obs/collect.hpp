#pragma once
// Cross-process trace collection for the serving farm. Every farm
// process (upa_dispatch, each upa_served replica) streams completed
// spans over its `subscribe` telemetry channel; the collector ingests
// those JSONL lines, reassembles per-request traces across process
// boundaries, and mines the observed workload back into the paper's
// modeling inputs.
//
// Linkage model (see serve/protocol.hpp): the front's dispatch_request
// root carries the trace_id; each dispatch_attempt child carries a
// per-process `ref` it also propagated to the upstream as the trace
// context's span_id, and the replica's serve_request span echoes that
// value back as its `parent_span` attribute. A trace is *complete* when
// its root exists, its per-attempt children match the root's `attempts`
// count, and every attempt whose outcome implies the replica handled
// the request (ok / deadline / error) has a matching server-side span
// -- admission rejections (503 written before any handler runs) and
// transport failures legitimately leave no server span.
//
// Profile mining: traced requests carry (conn, seq) attributes, so the
// collector can rebuild each client connection's method sequence, map
// methods back to the paper's Table 1 functions, and estimate both the
// session DTMC (an operational profile) and the empirical scenario-class
// mix -- exactly the inputs ta::user_availability consumes. The mined
// mix fed through eq. (10) is then compared against the hand-specified
// Table 1 answer with a sampling-error tolerance.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "upa/profile/operational_profile.hpp"
#include "upa/profile/scenario.hpp"
#include "upa/ta/params.hpp"
#include "upa/ta/user_classes.hpp"

namespace upa::obs {

/// One span as received over a telemetry channel, with its attributes
/// split by type. Span ids are only unique per process.
struct CollectedSpan {
  std::string process;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (within its process)
  std::string name;
  std::string level;   ///< span_level_name string, e.g. "serve_request"
  std::string domain;  ///< time_domain_name string
  double start = 0.0;
  double end = 0.0;
  std::map<std::string, double> number_attrs;
  std::map<std::string, std::string> text_attrs;

  [[nodiscard]] bool has_number(const std::string& key) const;
  [[nodiscard]] double number(const std::string& key,
                              double fallback = 0.0) const;
  [[nodiscard]] std::string text(const std::string& key) const;
};

/// Per-process ingest accounting (one entry per distinct process label).
struct ProcessIngest {
  std::string process;
  std::uint64_t metrics_lines = 0;
  std::uint64_t span_lines = 0;
  std::uint64_t last_seq = 0;
  std::uint64_t seq_gaps = 0;       ///< missed metrics ticks
  std::uint64_t dropped_spans = 0;  ///< latest reported by the process
};

/// One forwarding attempt inside a reassembled request.
struct TraceAttempt {
  const CollectedSpan* span = nullptr;
  std::uint64_t ref = 0;
  std::string upstream;
  std::string outcome;
  const CollectedSpan* server_root = nullptr;  ///< matched serve_request
  std::vector<const CollectedSpan*> server_phases;
};

/// One client request: a dispatch_request root with its attempt chain,
/// or a direct (front-less) serve_request root with no attempts.
struct TraceRequest {
  const CollectedSpan* root = nullptr;
  std::string method;
  std::string outcome;
  std::vector<TraceAttempt> attempts;
  bool complete = true;
  std::string incompleteness;  ///< first failed check; empty if complete
};

/// Everything observed under one trace_id (loadgen issues one request
/// per trace, but adopted contexts may carry several).
struct AssembledTrace {
  std::string trace_id;
  std::vector<TraceRequest> requests;
  bool complete = false;  ///< at least one request, all complete
};

struct ReassemblyReport {
  std::vector<AssembledTrace> traces;  ///< sorted by trace_id
  std::size_t complete_traces = 0;
  /// serve_request spans claiming a parent ref no attempt carries
  /// (clock-skewed subscriptions or a dropped front span).
  std::size_t orphan_server_roots = 0;
};

/// The mined workload model: session DTMC + empirical class mix over
/// the paper's five functions (TaFunction order).
struct MinedProfile {
  profile::OperationalProfile profile;
  profile::ScenarioSet classes;  ///< visited-set mix, masses sum to ~1
  std::size_t walks = 0;
  std::size_t invocations = 0;
  std::size_t skipped_invocations = 0;  ///< methods outside the mapping
};

/// Mined-vs-hand-specified eq. (10) comparison. The tolerance is the
/// run's own sampling error: the mined availability is the mean of one
/// bounded per-walk weight, so 4 standard errors plus a small absolute
/// floor covers it at any walk count that mining accepts.
struct ProfileComparison {
  double mined_availability = 0.0;
  double hand_availability = 0.0;
  double difference = 0.0;  ///< |mined - hand|
  double tolerance = 0.0;
  std::size_t walks = 0;
  bool within_tolerance = false;
};

/// Ingests telemetry JSONL from any number of processes (thread-safe:
/// one reader thread per subscription may call ingest_line
/// concurrently) and runs the offline analyses.
class TraceCollector {
 public:
  /// Ingests one telemetry line ({"telemetry":"metrics"|"span",...}).
  /// Returns true if the line was recognized; malformed or non-telemetry
  /// lines are counted, not thrown.
  bool ingest_line(const std::string& line);

  /// Ingests a whole newline-delimited blob; returns the number of
  /// recognized lines.
  std::size_t ingest_jsonl(const std::string& text);

  [[nodiscard]] std::vector<CollectedSpan> spans() const;
  [[nodiscard]] std::vector<ProcessIngest> processes() const;
  [[nodiscard]] std::uint64_t dropped_spans_total() const;
  [[nodiscard]] std::uint64_t unrecognized_lines() const;

  /// Groups spans by trace_id and stitches the cross-process linkage.
  /// Pointers in the report alias this collector's span storage and are
  /// valid until the next ingest call.
  [[nodiscard]] ReassemblyReport reassemble() const;

  /// Fraction of `expected_trace_ids` (e.g. a loadgen run's per-request
  /// CSV) reassembled into a complete trace.
  [[nodiscard]] static double accounted_fraction(
      const ReassemblyReport& report,
      const std::vector<std::string>& expected_trace_ids);

  /// Merged Chrome/Perfetto trace: one track (pid) per process, one row
  /// (tid) per root span. Per-process clocks are aligned onto the
  /// reference process's wall timeline by matching each serve_request
  /// span to the midpoint of its dispatch_attempt window.
  [[nodiscard]] std::string merged_chrome_trace(
      const ReassemblyReport& report) const;

  /// Raw ingested spans as JSONL (telemetry span-line format), ordered
  /// by (process, span id) -- a deterministic merge of all channels.
  [[nodiscard]] std::string merged_spans_jsonl() const;

  /// Rebuilds per-connection method sequences from a reassembly report,
  /// maps them to Table 1 functions, and estimates the session DTMC and
  /// empirical class mix. Throws ModelError when no complete walks over
  /// mapped methods exist.
  [[nodiscard]] static MinedProfile mine_profile(
      const ReassemblyReport& report);

  /// Eq. (10) over the mined class mix vs. the hand-specified Table 1
  /// inputs for `uclass`, with a 4-standard-error + 0.02 tolerance.
  [[nodiscard]] static ProfileComparison compare_with_hand_specified(
      const MinedProfile& mined, ta::UserClass uclass,
      const ta::TaParameters& params = ta::TaParameters::paper_defaults());

 private:
  mutable std::mutex mutex_;
  std::vector<CollectedSpan> spans_;
  std::map<std::string, ProcessIngest> processes_;
  std::uint64_t unrecognized_ = 0;
};

}  // namespace upa::obs
