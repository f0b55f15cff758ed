#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/// One thread's spans plus its stack of open spans (indices into spans).
struct Buffer {
  std::uint64_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int64_t> open;
};

std::mutex buffers_mu;
std::vector<std::unique_ptr<Buffer>> buffers;  // guarded by buffers_mu
std::map<std::string, std::vector<double>> notes;  // guarded by buffers_mu

Buffer* ThisThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(buffers_mu);
    buffers.push_back(std::make_unique<Buffer>());
    buffer = buffers.back().get();
    buffer->thread = buffers.size();
  }
  return buffer;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

std::string Span::layer() const {
  const std::string full = name;
  return full.substr(0, full.find('.'));
}

void Tracer::Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(buffers_mu);
    for (const auto& buffer : buffers) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_s < b.start_s || (a.start_s == b.start_s && a.id < b.id);
  });
  return all;
}

void Tracer::Note(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(buffers_mu);
  notes[name].push_back(value);
}

std::vector<double> Tracer::Notes(const std::string& name) {
  std::lock_guard<std::mutex> lock(buffers_mu);
  auto it = notes.find(name);
  return it == notes.end() ? std::vector<double>{} : it->second;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request,
                       std::uint64_t count)
    : count_(count) {
  if (!Tracer::enabled()) return;
  Buffer* buffer = ThisThreadBuffer();
  Span span;
  span.name = name;
  span.id = (buffer->thread << 40) | (buffer->spans.size() + 1);
  if (!buffer->open.empty()) {
    const Span& parent = buffer->spans[buffer->open.back()];
    span.parent = parent.id;
    if (request == 0) request = parent.request;
  }
  span.request = request;
  index_ = static_cast<std::int64_t>(buffer->spans.size());
  buffer->open.push_back(index_);
  span.start_s = Now();
  buffer->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  const double end = Now();
  Buffer* buffer = ThisThreadBuffer();
  Span& span = buffer->spans[index_];
  span.end_s = end;
  span.count = count_;
  buffer->open.pop_back();
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end()) {
      children[it->second].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Union of the children's intervals, clipped to the parent: spans is
    // sorted by start, so each child list already is too.
    double covered = 0.0;
    double reach = span.start_s;
    for (std::size_t c : children[i]) {
      const double lo = std::max(spans[c].start_s, reach);
      const double hi = std::min(spans[c].end_s, span.end_s);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = span.seconds() - covered;
  }
  return self;
}

std::vector<LedgerRow> Ledger(const std::vector<Span>& spans,
                              const std::string& root_prefix) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Root of each span (spans is sorted by start, so a parent's root is
  // always resolved before its children's).
  std::vector<std::size_t> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    root[i] = (spans[i].parent == 0 || it == index.end()) ? i
                                                          : root[it->second];
  }
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, LedgerRow> rows;
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string root_name = spans[root[i]].name;
    if (root_name.rfind(root_prefix, 0) != 0) continue;
    if (root[i] == i) total += spans[i].seconds();
    LedgerRow& row = rows[spans[i].layer()];
    row.layer = spans[i].layer();
    row.self_s += self[i];
    row.spans += 1;
  }
  std::vector<LedgerRow> ledger;
  for (auto& [layer, row] : rows) {
    row.share = total > 0.0 ? row.self_s / total : 0.0;
    ledger.push_back(row);
  }
  std::sort(ledger.begin(), ledger.end(),
            [](const LedgerRow& a, const LedgerRow& b) {
              return a.self_s > b.self_s;
            });
  return ledger;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"count\":%llu}\n",
                 s.name, s.start_s, s.end_s,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(out) == 0;
}

std::vector<const Span*> Named(const std::vector<Span>& spans,
                               const std::string& name) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(&s);
  }
  return out;
}

double MedianSeconds(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> d;
  for (const Span* s : Named(spans, name)) d.push_back(s->seconds());
  if (d.empty()) return 0.0;
  std::sort(d.begin(), d.end());
  return d.size() % 2 == 1 ? d[d.size() / 2]
                           : 0.5 * (d[d.size() / 2 - 1] + d[d.size() / 2]);
}

double SecondsPerItem(const std::vector<Span>& spans, const std::string& name) {
  double seconds = 0.0;
  std::uint64_t items = 0;
  for (const Span* s : Named(spans, name)) {
    seconds += s->seconds();
    items += s->count;
  }
  return items == 0 ? 0.0 : seconds / static_cast<double>(items);
}

}  // namespace perfbench
