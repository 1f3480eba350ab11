// In-memory span recorder of the traced run.
#include <cstdio>
#include <memory>

#include "bench.hpp"

namespace perfbench {

int Tracer::begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_seconds(), 0, parent, op_, 0});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_seconds();
  open_.pop_back();
  if (s.parent >= 0)
    spans_[static_cast<std::size_t>(s.parent)].child_total += s.end - s.start;
}

void Tracer::add_measured_child(int parent, const char* name, double seconds) {
  Span& p = spans_[static_cast<std::size_t>(parent)];
  spans_.push_back({name, p.end - seconds, p.end, parent, p.op, 0});
  p.child_total += seconds;
}

double Tracer::duration(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end - s.start;
}

double Tracer::self_time(int id) const {
  return duration(id) - spans_[static_cast<std::size_t>(id)].child_total;
}

bool Tracer::write(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return false;
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f.get(), "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"self_s\": %.9f, \"parent\": %d, "
                 "\"op\": %d}%s\n",
                 i, s.name, s.start - t0, s.end - t0,
                 (s.end - s.start) - s.child_total, s.parent, s.op,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f.get(), "]}\n");
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
