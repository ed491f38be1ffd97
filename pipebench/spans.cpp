#include "spans.h"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace pb {

unsigned Tracer::thread_index() {
  std::scoped_lock lk(mu_);
  auto [it, fresh] = tids_.emplace(std::this_thread::get_id(),
                                   static_cast<unsigned>(tids_.size()) + 1);
  return it->second;
}

std::map<std::string, double> layer_self_time(const std::vector<SpanRec>& spans) {
  std::unordered_map<long, std::vector<const SpanRec*>> children;
  for (const SpanRec& s : spans)
    if (s.parent >= 0) children[s.parent].push_back(&s);

  std::map<std::string, double> out;
  for (const SpanRec& s : spans) {
    std::vector<std::pair<double, double>> iv;
    auto it = children.find(s.id);
    if (it != children.end())
      for (const SpanRec* c : it->second) {
        double a = std::max(c->start_s, s.start_s), b = std::min(c->end_s, s.end_s);
        if (b > a) iv.emplace_back(a, b);
      }
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    out[s.layer()] += std::max(0.0, s.dur() - covered);
  }
  return out;
}

void write_chrome_trace(const std::vector<SpanRec>& spans, const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                    &std::fclose);
  if (!f) throw std::runtime_error("cannot write span file " + path);
  std::fprintf(f.get(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::fprintf(f.get(),
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%ld,\"parent\":%ld,"
                 "\"req\":%ld",
                 s.name.c_str(), s.layer().c_str(), s.tid, s.start_s * 1e6,
                 s.dur() * 1e6, s.id, s.parent, s.req);
    for (const auto& [k, v] : s.args) std::fprintf(f.get(), ",\"%s\":%.17g", k.c_str(), v);
    std::fprintf(f.get(), "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f.get(), "]}\n");
  if (std::fflush(f.get()) != 0) throw std::runtime_error("short write to " + path);
}

}  // namespace pb
