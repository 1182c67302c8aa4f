#include "catalog/query_lang.h"

#include <cctype>
#include <chrono>
#include <limits>
#include <optional>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/history.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "timex/calendar.h"
#include "util/string_util.h"

namespace tempspec {

namespace {

// Minimal word/quoted-literal scanner (the DDL tokenizer does not handle
// quoted time literals).
class QueryCursor {
 public:
  explicit QueryCursor(std::string_view input) : input_(input) {}

  Status SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    return Status::OK();
  }

  bool AtEnd() {
    SkipSpace().Check();
    return pos_ >= input_.size() || input_[pos_] == ';';
  }

  /// Reads the next bare word, upper-cased.
  Result<std::string> Word() {
    SkipSpace().Check();
    size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected a word at '",
                                     std::string(input_.substr(pos_, 10)), "'");
    }
    std::string w(input_.substr(start, pos_ - start));
    for (auto& c : w) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return w;
  }

  /// Reads the next bare word without upper-casing (relation names).
  Result<std::string> Identifier() {
    SkipSpace().Check();
    size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected a relation name");
    }
    return std::string(input_.substr(start, pos_ - start));
  }

  bool TryWord(const std::string& expected) {
    const size_t saved = pos_;
    auto w = Word();
    if (w.ok() && w.ValueOrDie() == expected) return true;
    pos_ = saved;
    return false;
  }

  Status ExpectWord(const std::string& expected) {
    if (TryWord(expected)) return Status::OK();
    return Status::InvalidArgument("expected ", expected);
  }

  Result<uint64_t> Number() {
    SkipSpace().Check();
    size_t start = pos_;
    while (pos_ < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected a number");
    }
    return static_cast<uint64_t>(
        std::stoull(std::string(input_.substr(start, pos_ - start))));
  }

  /// Reads a single-quoted literal, returning the text between the quotes.
  Result<std::string> QuotedText() {
    SkipSpace().Check();
    if (pos_ >= input_.size() || input_[pos_] != '\'') {
      return Status::InvalidArgument("expected a quoted literal");
    }
    const size_t close = input_.find('\'', pos_ + 1);
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("unterminated quoted literal");
    }
    std::string text(input_.substr(pos_ + 1, close - pos_ - 1));
    pos_ = close + 1;
    return text;
  }

  Result<TimePoint> TimeLiteral() {
    TS_ASSIGN_OR_RETURN(std::string text, QuotedText());
    return ParseTimePoint(text);
  }

  bool TryChar(char c) {
    SkipSpace().Check();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectChar(char c) {
    if (TryChar(c)) return Status::OK();
    return Status::InvalidArgument("expected '", std::string(1, c), "'");
  }

  /// Reads a signed numeric token (digits, sign, '.', exponent characters);
  /// the caller parses it with the type it expects.
  Result<std::string> NumericToken() {
    SkipSpace().Check();
    const size_t start = pos_;
    if (pos_ < input_.size() && (input_[pos_] == '-' || input_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else if ((c == '-' || c == '+') && pos_ > start &&
                 (input_[pos_ - 1] == 'e' || input_[pos_ - 1] == 'E')) {
        ++pos_;  // exponent sign
      } else {
        break;
      }
    }
    if (pos_ == start ||
        (pos_ == start + 1 && !std::isdigit(static_cast<unsigned char>(
                                  input_[start])))) {
      pos_ = start;
      return Status::InvalidArgument("expected a numeric literal");
    }
    return std::string(input_.substr(start, pos_ - start));
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
};

// SHOW SLOW QUERIES [LIMIT n]: the retained ring, oldest first (LIMIT keeps
// the n most recent), one JSON line per entry plus a summary line.
Result<QueryOutput> ShowSlowQueries(QueryCursor& cur) {
  QueryOutput out;
  size_t limit = std::numeric_limits<size_t>::max();
  if (cur.TryWord("LIMIT")) {
    TS_ASSIGN_OR_RETURN(uint64_t n, cur.Number());
    limit = static_cast<size_t>(n);
  }
  SlowQueryLog& log = SlowQueryLog::Instance();
  std::vector<SlowQueryEntry> entries = log.Entries();
  const size_t begin = entries.size() > limit ? entries.size() - limit : 0;
  std::ostringstream ss;
  for (size_t i = begin; i < entries.size(); ++i) {
    ss << entries[i].ToJson() << "\n";
  }
  ss << (entries.size() - begin) << " slow quer"
     << (entries.size() - begin == 1 ? "y" : "ies") << " shown ("
     << log.TotalRecorded() << " recorded, threshold "
     << log.threshold_micros() << "us)\n";
  out.report = ss.str();
  return out;
}

// SHOW FLIGHT RECORDER [LIMIT n]: the flight-recorder ring, oldest first
// (LIMIT keeps the n most recent), one JSON line per event plus a summary.
Result<QueryOutput> ShowFlightRecorder(QueryCursor& cur) {
  QueryOutput out;
  size_t limit = std::numeric_limits<size_t>::max();
  if (cur.TryWord("LIMIT")) {
    TS_ASSIGN_OR_RETURN(uint64_t n, cur.Number());
    limit = static_cast<size_t>(n);
  }
  std::ostringstream ss;
  if (!FlightRecorderCompiledIn()) {
    ss << "0 event(s) shown (flight recorder compiled out; rebuild with "
          "-DTEMPSPEC_FLIGHTRECORDER=ON)\n";
    out.report = ss.str();
    return out;
  }
  FlightRecorder& recorder = FlightRecorder::Instance();
  std::vector<FlightEvent> events = recorder.Snapshot();
  const size_t begin = events.size() > limit ? events.size() - limit : 0;
  for (size_t i = begin; i < events.size(); ++i) {
    ss << events[i].ToJson() << "\n";
  }
  ss << (events.size() - begin) << " event(s) shown (" << recorder.head()
     << " recorded, ring capacity " << recorder.capacity() << ")\n";
  out.report = ss.str();
  return out;
}

// SHOW TRACES [LIMIT n]: the retained span ring, oldest first (LIMIT keeps
// the n most recent), one JSON line per span plus a summary.
Result<QueryOutput> ShowTraces(QueryCursor& cur) {
  QueryOutput out;
  size_t limit = std::numeric_limits<size_t>::max();
  if (cur.TryWord("LIMIT")) {
    TS_ASSIGN_OR_RETURN(uint64_t n, cur.Number());
    limit = static_cast<size_t>(n);
  }
  RetainedTraces& traces = RetainedTraces::Instance();
  std::vector<RetainedTrace> entries = traces.Entries();
  const size_t begin = entries.size() > limit ? entries.size() - limit : 0;
  std::ostringstream ss;
  for (size_t i = begin; i < entries.size(); ++i) {
    ss << entries[i].json << "\n";
  }
  ss << (entries.size() - begin) << " trace(s) shown ("
     << traces.TotalRetained() << " retained of " << traces.TotalSeen()
     << " seen, ring capacity " << traces.capacity() << ", sampling 1/"
     << traces.sample_every() << ")\n";
  out.report = ss.str();
  return out;
}

// SHOW HEALTH: re-evaluates every declared SLO against the labeled latency
// family, one JSON verdict per objective plus a summary line.
Result<QueryOutput> ShowHealth(QueryCursor&) {
  QueryOutput out;
  const std::vector<SloVerdict> verdicts = SloRegistry::Instance().Evaluate();
  std::ostringstream ss;
  size_t burning = 0;
  size_t violated = 0;
  for (const SloVerdict& v : verdicts) {
    if (v.burning) ++burning;
    if (!v.total_ok) ++violated;
    ss << v.ToJson() << "\n";
  }
  ss << verdicts.size() << " objective(s), " << violated << " violated, "
     << burning << " burning\n";
  out.report = ss.str();
  return out;
}

// SHOW HISTORY [LIMIT n]: the metrics time-series ring, oldest first (LIMIT
// keeps the n most recent samples), one JSON line per sample plus a summary.
Result<QueryOutput> ShowHistory(QueryCursor& cur) {
  QueryOutput out;
  size_t limit = std::numeric_limits<size_t>::max();
  if (cur.TryWord("LIMIT")) {
    TS_ASSIGN_OR_RETURN(uint64_t n, cur.Number());
    limit = static_cast<size_t>(n);
  }
  MetricsHistory& history = MetricsHistory::Instance();
  const size_t retained = history.Entries().size();
  const size_t shown = retained > limit ? limit : retained;
  std::ostringstream ss;
  ss << history.RenderJsonl(shown);
  ss << shown << " sample(s) shown (" << history.TotalSamples()
     << " sampled, ring capacity " << history.capacity() << ", interval "
     << history.interval_ms() << "ms)\n";
  out.report = ss.str();
  return out;
}

// SHOW SPECIALIZATION <relation>: declared vs observed kind, drift state,
// and the Figure-1 pane occupancy histogram.
Result<QueryOutput> ShowSpecialization(const Catalog& catalog,
                                       QueryCursor& cur) {
  TS_ASSIGN_OR_RETURN(std::string name, cur.Identifier());
  TS_ASSIGN_OR_RETURN(TemporalRelation * rel, catalog.Get(name));
  QueryOutput out;
  out.report = rel->DriftState().ToString();
  return out;
}

// One positional value of an INSERT, parsed with the attribute's declared
// type: NULL, TRUE/FALSE, bare numbers, quoted strings, quoted times.
Result<Value> ParseValueLiteral(QueryCursor& cur, const AttributeDef& attr) {
  if (cur.TryWord("NULL")) return Value::Null();
  switch (attr.type) {
    case ValueType::kBool:
      if (cur.TryWord("TRUE")) return Value(true);
      if (cur.TryWord("FALSE")) return Value(false);
      return Status::InvalidArgument("expected TRUE, FALSE, or NULL for '",
                                     attr.name, "'");
    case ValueType::kInt64: {
      TS_ASSIGN_OR_RETURN(std::string tok, cur.NumericToken());
      try {
        return Value(static_cast<int64_t>(std::stoll(tok)));
      } catch (const std::exception&) {
        return Status::InvalidArgument("bad INT64 literal '", tok, "' for '",
                                       attr.name, "'");
      }
    }
    case ValueType::kDouble: {
      TS_ASSIGN_OR_RETURN(std::string tok, cur.NumericToken());
      try {
        return Value(std::stod(tok));
      } catch (const std::exception&) {
        return Status::InvalidArgument("bad DOUBLE literal '", tok, "' for '",
                                       attr.name, "'");
      }
    }
    case ValueType::kString: {
      TS_ASSIGN_OR_RETURN(std::string text, cur.QuotedText());
      return Value(std::move(text));
    }
    case ValueType::kTime: {
      TS_ASSIGN_OR_RETURN(std::string text, cur.QuotedText());
      TS_ASSIGN_OR_RETURN(TimePoint tp, ParseTimePoint(text));
      return Value(tp);
    }
    case ValueType::kNull:
      break;
  }
  return Status::InvalidArgument("attribute '", attr.name,
                                 "' has no parsable type");
}

// A write statement must be whole before it mutates anything: a trailing
// token reported after the insert or delete ran would fail a write that was
// applied and logged.
Status ExpectEnd(QueryCursor& cur) {
  if (!cur.AtEnd()) {
    return Status::InvalidArgument("trailing tokens after statement");
  }
  return Status::OK();
}

// INSERT INTO <rel> OBJECT <n> VALUES (...) VALID AT '<t>' | FROM..TO.
Result<QueryOutput> ExecuteInsert(const Catalog& catalog, QueryCursor& cur) {
  TS_RETURN_NOT_OK(cur.ExpectWord("INTO"));
  TS_ASSIGN_OR_RETURN(std::string name, cur.Identifier());
  TS_ASSIGN_OR_RETURN(TemporalRelation * rel, catalog.Get(name));
  const Schema& schema = rel->schema();

  TS_RETURN_NOT_OK(cur.ExpectWord("OBJECT"));
  TS_ASSIGN_OR_RETURN(uint64_t object, cur.Number());
  TS_RETURN_NOT_OK(cur.ExpectWord("VALUES"));
  TS_RETURN_NOT_OK(cur.ExpectChar('('));
  std::vector<Value> values;
  values.reserve(schema.num_attributes());
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) TS_RETURN_NOT_OK(cur.ExpectChar(','));
    TS_ASSIGN_OR_RETURN(Value v, ParseValueLiteral(cur, schema.attribute(i)));
    values.push_back(std::move(v));
  }
  TS_RETURN_NOT_OK(cur.ExpectChar(')'));

  TS_RETURN_NOT_OK(cur.ExpectWord("VALID"));
  TimePoint vt_begin;
  TimePoint vt_end;
  if (schema.IsEventRelation()) {
    TS_RETURN_NOT_OK(cur.ExpectWord("AT"));
    TS_ASSIGN_OR_RETURN(vt_begin, cur.TimeLiteral());
  } else {
    TS_RETURN_NOT_OK(cur.ExpectWord("FROM"));
    TS_ASSIGN_OR_RETURN(vt_begin, cur.TimeLiteral());
    TS_RETURN_NOT_OK(cur.ExpectWord("TO"));
    TS_ASSIGN_OR_RETURN(vt_end, cur.TimeLiteral());
  }
  TS_RETURN_NOT_OK(ExpectEnd(cur));
  TS_ASSIGN_OR_RETURN(
      ElementSurrogate surrogate,
      schema.IsEventRelation()
          ? rel->InsertEvent(object, vt_begin, Tuple(std::move(values)))
          : rel->InsertInterval(object, vt_begin, vt_end,
                                Tuple(std::move(values))));
  TS_COUNTER_INC("querylang.inserts");

  QueryOutput out;
  out.relation = name;
  std::ostringstream ss;
  ss << "inserted element " << surrogate << " (object " << object << ") into "
     << name << "\n";
  out.report = ss.str();
  return out;
}

// DELETE FROM <rel> WHERE ID <n>: logical deletion, closing [tt_b, tt_d).
Result<QueryOutput> ExecuteDelete(const Catalog& catalog, QueryCursor& cur) {
  TS_RETURN_NOT_OK(cur.ExpectWord("FROM"));
  TS_ASSIGN_OR_RETURN(std::string name, cur.Identifier());
  TS_ASSIGN_OR_RETURN(TemporalRelation * rel, catalog.Get(name));
  TS_RETURN_NOT_OK(cur.ExpectWord("WHERE"));
  TS_RETURN_NOT_OK(cur.ExpectWord("ID"));
  TS_ASSIGN_OR_RETURN(uint64_t surrogate, cur.Number());
  TS_RETURN_NOT_OK(ExpectEnd(cur));
  TS_RETURN_NOT_OK(rel->LogicalDelete(surrogate));
  TS_COUNTER_INC("querylang.deletes");

  QueryOutput out;
  out.relation = name;
  std::ostringstream ss;
  ss << "deleted element " << surrogate << " from " << name << "\n";
  out.report = ss.str();
  return out;
}

#ifdef TEMPSPEC_METRICS
// Records one executed statement into the labeled latency family behind
// tempspec_query_latency{relation,kind,protocol}. The protocol label comes
// from the server-stamped trace attribute; an embedded caller (no server in
// the path) renders as "local".
void ObserveLabeledLatency(const std::string& relation, std::string kind,
                           const TraceContext* trace,
                           std::chrono::steady_clock::time_point start) {
  if (relation.empty() || kind.empty()) return;
  std::string protocol = trace != nullptr ? trace->attr("protocol") : "";
  if (protocol.empty()) protocol = "local";
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  QueryLatencyFamily::Instance().Observe(relation, kind, protocol,
                                         static_cast<uint64_t>(wall.count()));
}
#endif  // TEMPSPEC_METRICS

/// The transaction-time prefix an as-of read is cut to: the executor scans
/// only rows stored by `tt`.
std::string AsOfBound(TimePoint tt) { return "tt_start <= " + tt.ToString(); }

/// The plan line for `query` run by `plan`. A historical query's line names
/// the optimizer's strategy, kernel and rationale, and the exact candidate
/// count the executor weighs — the range's rows, which are also the
/// valid-index probe's budget when the plan is a cost choice. Both depend
/// only on the stored rows, so the line is deterministic.
std::string DescribePlan(const QueryExecutor& exec, const TemporalQuery& query,
                         const PlanChoice& plan) {
  switch (query.kind) {
    case TemporalQuery::Kind::kCurrent:
      return "current-state scan";
    case TemporalQuery::Kind::kRollback:
      return "transaction-time prefix scan [kernel " +
             std::string(ScanKernelToToken(plan.kernel)) + "] — " +
             AsOfBound(*query.as_of);
    case TemporalQuery::Kind::kTimeslice:
    case TemporalQuery::Kind::kValidRange:
      break;
  }
  const size_t range_rows = exec.CandidateRows(query, plan);
  std::string line = std::string(ExecutionStrategyToString(plan.strategy)) +
                     " [kernel " + ScanKernelToToken(plan.kernel) + "] — " +
                     plan.rationale + "; candidate range " +
                     std::to_string(range_rows) + " row(s)";
  if (plan.choose_by_cost) {
    line += ", valid-index probe budget " + std::to_string(range_rows);
  }
  if (query.as_of.has_value()) {
    line += "; as of " + query.as_of->ToString() + ", " +
            AsOfBound(*query.as_of);
  }
  return line;
}

}  // namespace

Result<QueryOutput> ExecuteQuery(const Catalog& catalog,
                                 const std::string& statement) {
  return ExecuteQuery(catalog, statement, /*trace=*/nullptr);
}

bool IsWriteStatement(const std::string& statement) {
  QueryCursor cur(statement);
  auto verb = cur.Word();
  if (!verb.ok()) return false;
  const std::string& v = verb.ValueOrDie();
  return v == "INSERT" || v == "DELETE" || v == "CREATE" || v == "DROP";
}

Result<QueryOutput> ExecuteQuery(const Catalog& catalog,
                                 const std::string& statement,
                                 TraceContext* external_trace) {
  QueryCursor cur(statement);
  QueryOutput out;
  TS_COUNTER_INC("querylang.statements");
  TS_METRICS_ONLY(const auto query_start = std::chrono::steady_clock::now();)

  TS_ASSIGN_OR_RETURN(std::string verb, cur.Word());
  if (verb == "EXPLAIN") {
    if (cur.TryWord("ANALYZE")) {
      out.analyze = true;  // execute, then report the trace span
    } else {
      out.explain_only = true;
    }
    TS_ASSIGN_OR_RETURN(verb, cur.Word());
  }

  if (verb == "INSERT" || verb == "DELETE") {
    if (out.explain_only || out.analyze) {
      return Status::InvalidArgument("EXPLAIN does not apply to ", verb);
    }
    // Both verbs check the end of the statement before they mutate.
    Result<QueryOutput> written = verb == "INSERT"
                                      ? ExecuteInsert(catalog, cur)
                                      : ExecuteDelete(catalog, cur);
    TS_RETURN_NOT_OK(written.status());
    TS_METRICS_ONLY(ObserveLabeledLatency(
        written.ValueOrDie().relation, verb == "INSERT" ? "insert" : "delete",
        external_trace, query_start);)
    return written;
  }

  if (verb == "SHOW") {
    TS_ASSIGN_OR_RETURN(std::string what, cur.Word());
    Result<QueryOutput> shown = [&]() -> Result<QueryOutput> {
      if (what == "SLOW") {
        TS_RETURN_NOT_OK(cur.ExpectWord("QUERIES"));
        return ShowSlowQueries(cur);
      }
      if (what == "FLIGHT") {
        TS_RETURN_NOT_OK(cur.ExpectWord("RECORDER"));
        return ShowFlightRecorder(cur);
      }
      if (what == "TRACES") return ShowTraces(cur);
      if (what == "SPECIALIZATION") return ShowSpecialization(catalog, cur);
      if (what == "HEALTH") return ShowHealth(cur);
      if (what == "HISTORY") return ShowHistory(cur);
      return Status::InvalidArgument(
          "unknown SHOW target '", what,
          "' (expected SLOW QUERIES, SPECIALIZATION, FLIGHT RECORDER, "
          "TRACES, HEALTH, or HISTORY)");
    }();
    TS_RETURN_NOT_OK(shown.status());
    TS_RETURN_NOT_OK(ExpectEnd(cur));
    return shown;
  }

  // EXPLAIN ANALYZE attaches a per-query trace span to the executor; in a
  // metrics tree every executed statement carries one so the slow-query log
  // sees it (runtime cost: one span, only on the statement path). A
  // caller-owned trace (the server path) is attached unconditionally so its
  // deadline/cancellation reaches the morsel-boundary polls.
  TraceContext local_trace;
  TraceContext& trace = external_trace != nullptr ? *external_trace
                                                  : local_trace;
  ExecutorOptions exec_options;
  if (external_trace != nullptr && !out.explain_only) {
    exec_options.trace = &trace;
  }
  if (out.analyze) exec_options.trace = &trace;
  TS_METRICS_ONLY(if (!out.explain_only) exec_options.trace = &trace;)

  // Each query verb parses into one TemporalQuery; planning, the plan line
  // and execution are then shared.
  std::string name;
  TemporalQuery query;
  if (verb == "CURRENT") {
    TS_ASSIGN_OR_RETURN(name, cur.Identifier());
  } else if (verb == "ROLLBACK") {
    TS_ASSIGN_OR_RETURN(name, cur.Identifier());
    TS_RETURN_NOT_OK(cur.ExpectWord("TO"));
    TS_ASSIGN_OR_RETURN(TimePoint tt, cur.TimeLiteral());
    query = TemporalQuery::Rollback(tt);
  } else if (verb == "TIMESLICE") {
    TS_ASSIGN_OR_RETURN(name, cur.Identifier());
    TS_RETURN_NOT_OK(cur.ExpectWord("AT"));
    TS_ASSIGN_OR_RETURN(TimePoint vt, cur.TimeLiteral());
    std::optional<TimePoint> as_of;
    if (cur.TryWord("AS")) {
      TS_RETURN_NOT_OK(cur.ExpectWord("OF"));
      TS_ASSIGN_OR_RETURN(as_of, cur.TimeLiteral());
    }
    query = TemporalQuery::Timeslice(vt, as_of);
  } else if (verb == "RANGE") {
    TS_ASSIGN_OR_RETURN(name, cur.Identifier());
    TS_RETURN_NOT_OK(cur.ExpectWord("FROM"));
    TS_ASSIGN_OR_RETURN(TimePoint lo, cur.TimeLiteral());
    TS_RETURN_NOT_OK(cur.ExpectWord("TO"));
    TS_ASSIGN_OR_RETURN(TimePoint hi, cur.TimeLiteral());
    if (!(lo < hi)) {
      return Status::InvalidArgument("RANGE requires FROM < TO");
    }
    query = TemporalQuery::ValidRange(lo, hi);
  } else {
    return Status::InvalidArgument(
        "unknown query verb '", verb,
        "' (expected CURRENT, TIMESLICE, RANGE, ROLLBACK, SHOW, or EXPLAIN)");
  }
  TS_ASSIGN_OR_RETURN(TemporalRelation * rel, catalog.Get(name));
  TS_RETURN_NOT_OK(ExpectEnd(cur));
  out.relation = name;
  QueryExecutor exec(*rel, exec_options);
  const PlanChoice plan = exec.Plan(query);
  out.plan_description = DescribePlan(exec, query, plan);
  if (!out.explain_only) {
    out.elements =
        exec.Execute(query, &out.stats, &plan).Materialize(exec.options().pool);
  }

  if (out.analyze) out.trace_json = trace.ToJson();
  // Labeled per-query latency: kind is the scan-kernel token the executor
  // recorded (the per-specialization taxonomy), falling back to the verb.
  TS_METRICS_ONLY(if (!out.explain_only) {
    std::string kind = trace.attr("kernel");
    if (kind.empty()) {
      kind = verb;
      for (char& c : kind) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    }
    ObserveLabeledLatency(out.relation, std::move(kind), &trace, query_start);
  })
  // Feed the slow-query log and the retained-trace ring — unless the span
  // is server-owned, in which case the server records it at response
  // completion (so its entry covers queue wait and serialization too, and
  // the span is not recorded twice).
  const bool server_records =
      external_trace != nullptr && external_trace->server_owned();
  TS_METRICS_ONLY(if (!server_records && exec_options.trace != nullptr &&
                      trace.started()) {
    SlowQueryLog::Instance().Record(trace, statement);
  })
  if (!server_records && exec_options.trace != nullptr && trace.started()) {
    RetainedTraces::Instance().Record(trace);
  }
  // A cancelled scan abandons morsels, so the collected elements are an
  // arbitrary subset: surface Deadline exceeded rather than a quietly
  // truncated result.
  if (external_trace != nullptr &&
      (out.stats.scan_aborts > 0 || external_trace->CancellationRequested())) {
    return Status::DeadlineExceeded("query cancelled after examining ",
                                    out.stats.elements_examined,
                                    " element(s)");
  }
  return out;
}

std::string QueryOutput::ToString() const {
  if (!report.empty()) return report;
  std::ostringstream ss;
  if (!plan_description.empty()) ss << "plan: " << plan_description << "\n";
  if (explain_only) return ss.str();
  if (analyze) {
    ss << "trace: " << trace_json << "\n";
    ss << elements.size() << " element(s), " << stats.elements_examined
       << " examined\n";
    return ss.str();
  }
  for (const Element& e : elements) {
    ss << "  " << e.ToString() << "\n";
  }
  ss << elements.size() << " element(s), " << stats.elements_examined
     << " examined\n";
  return ss.str();
}

}  // namespace tempspec
