#include "upa/obs/collect.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/linalg/matrix.hpp"
#include "upa/obs/export.hpp"
#include "upa/serve/json.hpp"
#include "upa/serve/loadgen.hpp"
#include "upa/ta/functions.hpp"
#include "upa/ta/user_availability.hpp"

namespace upa::obs {

namespace {

/// Key for per-process span lookup (span ids are per-process).
using SpanKey = std::pair<std::string, std::uint64_t>;

/// Attempt outcomes that imply the replica accepted and handled the
/// request, so a matching server-side span must exist. An admission
/// rejection (503 written before any handler runs) and a transport
/// failure legitimately leave no server span.
bool outcome_needs_server_span(const std::string& outcome) {
  return outcome == "ok" || outcome == "deadline" || outcome == "error";
}

std::string outcome_for_code(double code) {
  const int c = static_cast<int>(code);
  if (c == 200) return "ok";
  if (c == 503) return "rejected";
  if (c == 504) return "deadline";
  return "error";
}

serve::Json span_to_json(const CollectedSpan& span) {
  serve::Json line = serve::Json::object();
  line.set("telemetry", serve::Json("span"));
  line.set("process", serve::Json(span.process));
  line.set("id", serve::Json(static_cast<double>(span.id)));
  line.set("parent", serve::Json(static_cast<double>(span.parent)));
  line.set("name", serve::Json(span.name));
  line.set("level", serve::Json(span.level));
  line.set("domain", serve::Json(span.domain));
  line.set("start", serve::Json(span.start));
  line.set("end", serve::Json(span.end));
  serve::Json attrs = serve::Json::object();
  for (const auto& [key, value] : span.text_attrs) {
    attrs.set(key, serve::Json(value));
  }
  for (const auto& [key, value] : span.number_attrs) {
    attrs.set(key, serve::Json(value));
  }
  line.set("attrs", std::move(attrs));
  return line;
}

}  // namespace

bool CollectedSpan::has_number(const std::string& key) const {
  return number_attrs.find(key) != number_attrs.end();
}

double CollectedSpan::number(const std::string& key, double fallback) const {
  const auto it = number_attrs.find(key);
  return it != number_attrs.end() ? it->second : fallback;
}

std::string CollectedSpan::text(const std::string& key) const {
  const auto it = text_attrs.find(key);
  return it != text_attrs.end() ? it->second : std::string();
}

bool TraceCollector::ingest_line(const std::string& line) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) return false;
  serve::Json value;
  try {
    value = serve::parse_json(line);
  } catch (const std::exception&) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++unrecognized_;
    return false;
  }
  const serve::Json* kind =
      value.is_object() ? value.find("telemetry") : nullptr;
  const serve::Json* process =
      value.is_object() ? value.find("process") : nullptr;
  if (kind == nullptr || !kind->is_string() || process == nullptr ||
      !process->is_string()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++unrecognized_;
    return false;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ProcessIngest& ingest = processes_[process->as_string()];
  ingest.process = process->as_string();

  if (kind->as_string() == "metrics") {
    const serve::Json* seq = value.find("seq");
    if (seq != nullptr && seq->is_number()) {
      const auto n = static_cast<std::uint64_t>(seq->as_number());
      if (ingest.metrics_lines > 0 && n > ingest.last_seq + 1) {
        ingest.seq_gaps += n - ingest.last_seq - 1;
      }
      ingest.last_seq = n;
    }
    if (const serve::Json* dropped = value.find("dropped_spans");
        dropped != nullptr && dropped->is_number()) {
      ingest.dropped_spans =
          static_cast<std::uint64_t>(dropped->as_number());
    }
    ++ingest.metrics_lines;
    return true;
  }

  if (kind->as_string() != "span") {
    ++unrecognized_;
    return false;
  }
  const serve::Json* id = value.find("id");
  const serve::Json* name = value.find("name");
  const serve::Json* level = value.find("level");
  const serve::Json* start = value.find("start");
  const serve::Json* end = value.find("end");
  if (id == nullptr || !id->is_number() || name == nullptr ||
      !name->is_string() || level == nullptr || !level->is_string() ||
      start == nullptr || !start->is_number() || end == nullptr ||
      !end->is_number()) {
    ++unrecognized_;
    return false;
  }
  CollectedSpan span;
  span.process = process->as_string();
  span.id = static_cast<std::uint64_t>(id->as_number());
  if (const serve::Json* parent = value.find("parent");
      parent != nullptr && parent->is_number()) {
    span.parent = static_cast<std::uint64_t>(parent->as_number());
  }
  span.name = name->as_string();
  span.level = level->as_string();
  if (const serve::Json* domain = value.find("domain");
      domain != nullptr && domain->is_string()) {
    span.domain = domain->as_string();
  }
  span.start = start->as_number();
  span.end = end->as_number();
  if (const serve::Json* attrs = value.find("attrs");
      attrs != nullptr && attrs->is_object()) {
    for (const auto& [key, attr] : attrs->as_object()) {
      if (attr.is_number()) {
        span.number_attrs[key] = attr.as_number();
      } else if (attr.is_string()) {
        span.text_attrs[key] = attr.as_string();
      }
    }
  }
  spans_.push_back(std::move(span));
  ++ingest.span_lines;
  return true;
}

std::size_t TraceCollector::ingest_jsonl(const std::string& text) {
  std::size_t recognized = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin) {
      if (ingest_line(text.substr(begin, end - begin))) ++recognized;
    }
    begin = end + 1;
  }
  return recognized;
}

std::vector<CollectedSpan> TraceCollector::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<ProcessIngest> TraceCollector::processes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ProcessIngest> out;
  out.reserve(processes_.size());
  for (const auto& [name, ingest] : processes_) out.push_back(ingest);
  return out;
}

std::uint64_t TraceCollector::dropped_spans_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, ingest] : processes_) {
    total += ingest.dropped_spans;
  }
  return total;
}

std::uint64_t TraceCollector::unrecognized_lines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return unrecognized_;
}

ReassemblyReport TraceCollector::reassemble() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ReassemblyReport report;

  std::map<SpanKey, std::vector<const CollectedSpan*>> children;
  for (const CollectedSpan& span : spans_) {
    if (span.parent != 0) {
      children[{span.process, span.parent}].push_back(&span);
    }
  }

  // Pass 1: dispatch_request roots become requests, their
  // dispatch_attempt children the attempt chain (in begin order --
  // span ids are monotone within a process).
  std::map<std::string, AssembledTrace> traces;
  for (const CollectedSpan& span : spans_) {
    if (span.level != "dispatch_request") continue;
    const std::string trace_id = span.text("trace_id");
    if (trace_id.empty()) continue;
    AssembledTrace& trace = traces[trace_id];
    trace.trace_id = trace_id;
    TraceRequest request;
    request.root = &span;
    request.method = span.name;
    request.outcome = span.text("outcome");
    std::vector<const CollectedSpan*> kids;
    if (const auto it = children.find({span.process, span.id});
        it != children.end()) {
      kids = it->second;
    }
    std::sort(kids.begin(), kids.end(),
              [](const CollectedSpan* a, const CollectedSpan* b) {
                return a->id < b->id;
              });
    for (const CollectedSpan* kid : kids) {
      if (kid->level != "dispatch_attempt") continue;
      TraceAttempt attempt;
      attempt.span = kid;
      attempt.ref = static_cast<std::uint64_t>(kid->number("ref"));
      attempt.upstream = kid->text("upstream");
      attempt.outcome = kid->text("outcome");
      request.attempts.push_back(std::move(attempt));
    }
    trace.requests.push_back(std::move(request));
  }

  // Pass 2: direct (front-less) serve_request roots -- a propagated
  // context with span_id 0 -- are requests in their own right.
  for (const CollectedSpan& span : spans_) {
    if (span.level != "serve_request") continue;
    const std::string trace_id = span.text("trace_id");
    if (trace_id.empty()) continue;
    if (static_cast<std::uint64_t>(span.number("parent_span")) != 0) {
      continue;
    }
    AssembledTrace& trace = traces[trace_id];
    trace.trace_id = trace_id;
    TraceRequest request;
    request.root = &span;
    request.method = span.name;
    request.outcome = outcome_for_code(span.number("code"));
    trace.requests.push_back(std::move(request));
  }

  // Requests are final now; attempt addresses are stable. Index the
  // propagated refs so replica spans can be stitched in.
  std::map<std::pair<std::string, std::uint64_t>, TraceAttempt*> by_ref;
  for (auto& [trace_id, trace] : traces) {
    for (TraceRequest& request : trace.requests) {
      for (TraceAttempt& attempt : request.attempts) {
        if (attempt.ref != 0) {
          by_ref[{trace_id, attempt.ref}] = &attempt;
        }
      }
    }
  }

  // Pass 3: attach serve_request spans to the attempt whose ref they
  // echo as parent_span, plus their serve_phase children.
  for (const CollectedSpan& span : spans_) {
    if (span.level != "serve_request") continue;
    const std::string trace_id = span.text("trace_id");
    if (trace_id.empty()) continue;
    const auto ref = static_cast<std::uint64_t>(span.number("parent_span"));
    if (ref == 0) continue;
    const auto it = by_ref.find({trace_id, ref});
    if (it == by_ref.end()) {
      ++report.orphan_server_roots;
      continue;
    }
    TraceAttempt& attempt = *it->second;
    attempt.server_root = &span;
    if (const auto kids = children.find({span.process, span.id});
        kids != children.end()) {
      for (const CollectedSpan* kid : kids->second) {
        if (kid->level == "serve_phase") {
          attempt.server_phases.push_back(kid);
        }
      }
      std::sort(attempt.server_phases.begin(), attempt.server_phases.end(),
                [](const CollectedSpan* a, const CollectedSpan* b) {
                  return a->id < b->id;
                });
    }
  }

  // Completeness: the root's declared attempt count must match its
  // children, and every attempt the replica actually handled must have
  // its server-side span.
  for (auto& [trace_id, trace] : traces) {
    bool all = !trace.requests.empty();
    for (TraceRequest& request : trace.requests) {
      if (request.root->level == "dispatch_request") {
        const auto declared =
            static_cast<std::size_t>(request.root->number("attempts"));
        if (declared != request.attempts.size()) {
          request.complete = false;
          request.incompleteness =
              "attempt spans missing: declared " +
              std::to_string(declared) + ", found " +
              std::to_string(request.attempts.size());
        }
        for (const TraceAttempt& attempt : request.attempts) {
          if (!request.complete) break;
          if (outcome_needs_server_span(attempt.outcome) &&
              attempt.server_root == nullptr) {
            request.complete = false;
            request.incompleteness =
                "no server span for " + attempt.outcome + " attempt on " +
                attempt.upstream;
          }
        }
      }
      all = all && request.complete;
    }
    trace.complete = all;
    if (all) ++report.complete_traces;
  }

  report.traces.reserve(traces.size());
  for (auto& [trace_id, trace] : traces) {
    report.traces.push_back(std::move(trace));
  }
  return report;
}

double TraceCollector::accounted_fraction(
    const ReassemblyReport& report,
    const std::vector<std::string>& expected_trace_ids) {
  if (expected_trace_ids.empty()) return 1.0;
  std::set<std::string> complete;
  for (const AssembledTrace& trace : report.traces) {
    if (trace.complete) complete.insert(trace.trace_id);
  }
  std::size_t found = 0;
  for (const std::string& id : expected_trace_ids) {
    if (complete.contains(id)) ++found;
  }
  return static_cast<double>(found) /
         static_cast<double>(expected_trace_ids.size());
}

std::string TraceCollector::merged_chrome_trace(
    const ReassemblyReport& report) const {
  std::lock_guard<std::mutex> lock(mutex_);

  // Process table in name order (deterministic pids).
  std::map<std::string, int> pid_of;
  for (const auto& [name, ingest] : processes_) {
    pid_of.emplace(name, static_cast<int>(pid_of.size()) + 1);
  }
  for (const CollectedSpan& span : spans_) {
    pid_of.emplace(span.process, static_cast<int>(pid_of.size()) + 1);
  }

  // Clock alignment: each replica's wall clock starts at its own tracer
  // epoch, so shift every non-reference process onto the front's
  // timeline by matching serve_request spans to the midpoint of their
  // dispatch_attempt window. Reference = the process owning the
  // dispatch spans (first process otherwise).
  std::map<std::string, double> offset;
  std::map<std::string, std::pair<double, std::size_t>> sums;
  for (const AssembledTrace& trace : report.traces) {
    for (const TraceRequest& request : trace.requests) {
      for (const TraceAttempt& attempt : request.attempts) {
        if (attempt.server_root == nullptr || attempt.span == nullptr) {
          continue;
        }
        const double attempt_mid =
            (attempt.span->start + attempt.span->end) / 2.0;
        const double server_mid =
            (attempt.server_root->start + attempt.server_root->end) / 2.0;
        auto& [sum, count] = sums[attempt.server_root->process];
        sum += attempt_mid - server_mid;
        ++count;
      }
    }
  }
  for (const auto& [process, aggregate] : sums) {
    offset[process] = aggregate.first / static_cast<double>(aggregate.second);
  }

  // tid = the span's root within its process, so every request renders
  // as one row per process track.
  std::map<SpanKey, const CollectedSpan*> by_key;
  for (const CollectedSpan& span : spans_) {
    by_key[{span.process, span.id}] = &span;
  }
  const auto root_id = [&](const CollectedSpan& span) {
    const CollectedSpan* cursor = &span;
    for (std::size_t hops = 0; cursor->parent != 0 && hops < 64; ++hops) {
      const auto it = by_key.find({cursor->process, cursor->parent});
      if (it == by_key.end()) break;
      cursor = it->second;
    }
    return cursor->id;
  };

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += "\n" + event;
  };
  for (const auto& [process, pid] : pid_of) {
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
         json_escape(process) + "\"}}");
  }
  for (const CollectedSpan& span : spans_) {
    const double shift =
        offset.contains(span.process) ? offset.at(span.process) : 0.0;
    const double ts = (span.start + shift) * 1e6;
    const double dur = (span.end - span.start) * 1e6;
    std::string args = "{\"process\":\"" + json_escape(span.process) + '"';
    for (const auto& [key, text] : span.text_attrs) {
      args += ",\"" + json_escape(key) + "\":\"" + json_escape(text) + '"';
    }
    for (const auto& [key, number] : span.number_attrs) {
      args += ",\"" + json_escape(key) + "\":" + serve::format_number(number);
    }
    args += '}';
    emit("{\"name\":\"" + json_escape(span.name) + "\",\"cat\":\"" +
         json_escape(span.level) + "\",\"ph\":\"X\",\"ts\":" +
         serve::format_number(ts) + ",\"dur\":" +
         serve::format_number(dur) + ",\"pid\":" +
         std::to_string(pid_of.at(span.process)) + ",\"tid\":" +
         std::to_string(root_id(span)) + ",\"args\":" + args + "}");
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string TraceCollector::merged_spans_jsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const CollectedSpan*> ordered;
  ordered.reserve(spans_.size());
  for (const CollectedSpan& span : spans_) ordered.push_back(&span);
  std::sort(ordered.begin(), ordered.end(),
            [](const CollectedSpan* a, const CollectedSpan* b) {
              return a->process != b->process ? a->process < b->process
                                              : a->id < b->id;
            });
  std::string out;
  for (const CollectedSpan* span : ordered) {
    out += span_to_json(*span).dump() + "\n";
  }
  return out;
}

MinedProfile TraceCollector::mine_profile(const ReassemblyReport& report) {
  // Rebuild each client connection's invocation sequence from the
  // (conn, seq) attributes traced requests carry.
  std::map<std::pair<std::string, std::uint64_t>,
           std::vector<std::pair<std::uint64_t, std::string>>>
      sequences;
  for (const AssembledTrace& trace : report.traces) {
    for (const TraceRequest& request : trace.requests) {
      if (!request.complete) continue;
      if (!request.root->has_number("conn")) continue;
      const auto conn =
          static_cast<std::uint64_t>(request.root->number("conn"));
      const auto seq =
          static_cast<std::uint64_t>(request.root->number("seq"));
      sequences[{request.root->process, conn}].emplace_back(seq,
                                                            request.method);
    }
  }

  std::vector<std::string> names;
  names.reserve(ta::kAllFunctions.size());
  for (const ta::TaFunction f : ta::kAllFunctions) {
    names.push_back(ta::function_name(f));
  }
  const std::size_t n = names.size();
  const auto function_of = [&](const std::string& method) {
    const std::string function = serve::function_for_method(method);
    for (std::size_t i = 0; i < n; ++i) {
      if (names[i] == function) return i;
    }
    return n;  // outside the session mapping
  };

  MinedProfile mined{
      profile::OperationalProfile(names,
                                  [&] {
                                    linalg::Matrix p(n + 2, n + 2);
                                    p(0, n + 1) = 1.0;
                                    p(n + 1, n + 1) = 1.0;
                                    for (std::size_t i = 1; i <= n; ++i) {
                                      p(i, n + 1) = 1.0;
                                    }
                                    return p;
                                  }()),
      profile::ScenarioSet(names)};

  linalg::Matrix counts(n + 2, n + 2);
  std::map<std::set<std::size_t>, std::size_t> visited_sets;
  std::size_t walks = 0;
  for (auto& [key, sequence] : sequences) {
    std::sort(sequence.begin(), sequence.end());
    std::vector<std::size_t> walk;
    for (const auto& [seq, method] : sequence) {
      const std::size_t f = function_of(method);
      if (f == n) {
        ++mined.skipped_invocations;
        continue;
      }
      walk.push_back(f);
    }
    if (walk.empty()) continue;
    ++walks;
    mined.invocations += walk.size();
    std::size_t state = profile::NodeIndex::kStart;
    std::set<std::size_t> visited;
    for (const std::size_t f : walk) {
      counts(state, f + 1) += 1.0;
      state = f + 1;
      visited.insert(f);
    }
    counts(state, n + 1) += 1.0;
    ++visited_sets[visited];
  }
  UPA_REQUIRE(walks > 0,
              "profile mining needs at least one traced session walk "
              "over the Table 1 method mapping");
  mined.walks = walks;

  // Row-normalize the transition counts; a function never visited sends
  // its (unobserved, probability-zero) row straight to Exit to keep the
  // matrix stochastic.
  linalg::Matrix p(n + 2, n + 2);
  for (std::size_t i = 0; i <= n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n + 2; ++j) row_sum += counts(i, j);
    if (row_sum <= 0.0) {
      p(i, n + 1) = 1.0;
      continue;
    }
    for (std::size_t j = 0; j < n + 2; ++j) {
      p(i, j) = counts(i, j) / row_sum;
    }
  }
  p(n + 1, n + 1) = 1.0;
  mined.profile = profile::OperationalProfile(names, std::move(p));

  for (const auto& [functions, count] : visited_sets) {
    std::string label;
    for (const std::size_t f : functions) {
      if (!label.empty()) label += '-';
      label += names[f];
    }
    mined.classes.add(label, functions,
                      static_cast<double>(count) /
                          static_cast<double>(walks));
  }
  return mined;
}

ProfileComparison TraceCollector::compare_with_hand_specified(
    const MinedProfile& mined, ta::UserClass uclass,
    const ta::TaParameters& params) {
  ProfileComparison out;
  out.walks = mined.walks;
  out.hand_availability = ta::user_availability_eq10(uclass, params);

  // The mined availability is the mean over walks of a per-class weight
  // (eq. 10 of the singleton scenario), so its sampling error follows
  // from the weights' empirical variance.
  double mean = 0.0;
  double second_moment = 0.0;
  for (const profile::ScenarioClass& sc : mined.classes.scenarios()) {
    profile::ScenarioSet singleton(mined.classes.function_names());
    singleton.add(sc.label, sc.functions, 1.0);
    const double value =
        ta::user_availability_eq10_scenarios(singleton, params);
    mean += sc.probability * value;
    second_moment += sc.probability * value * value;
  }
  out.mined_availability =
      ta::user_availability_eq10_scenarios(mined.classes, params);
  out.difference = std::abs(out.mined_availability - out.hand_availability);
  const double variance = std::max(0.0, second_moment - mean * mean);
  const double stderr_mean =
      std::sqrt(variance / static_cast<double>(std::max<std::size_t>(
                               mined.walks, 1)));
  out.tolerance = 4.0 * stderr_mean + 0.02;
  out.within_tolerance = out.difference <= out.tolerance;
  return out;
}

}  // namespace upa::obs
