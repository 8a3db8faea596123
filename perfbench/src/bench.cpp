#include "bench.hpp"

#include <fstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  failures_.push_back(what);
}

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::begin(std::string name) {
  Record s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = seconds_since(origin_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double Tracer::end(int id) {
  RENOC_CHECK_MSG(!open_.empty() && open_.back() == id,
                  "spans must close innermost first");
  open_.pop_back();
  Record& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = seconds_since(origin_);
  return s.end_s - s.start_s;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Record& s : spans_)
    if (s.name == name) total += s.end_s - s.start_s;
  return total;
}

std::vector<double> Tracer::self_s(
    const std::vector<std::string>& layers) const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Record& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  std::vector<double> out(layers.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string layer = spans_[i].name.substr(0, spans_[i].name.find('.'));
    for (std::size_t l = 0; l < layers.size(); ++l)
      if (layers[l] == layer) out[l] += self[i];
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  RENOC_CHECK_MSG(os, "cannot write spans to " << path);
  renoc::JsonWriter json(os);
  json.begin_array();
  for (const Record& s : spans_) {
    json.begin_object();
    json.key("name").string(s.name);
    json.key("start_s").real(s.start_s, 9);
    json.key("end_s").real(s.end_s, 9);
    json.key("parent").integer(s.parent);
    json.end_object();
  }
  json.end_array();
  os << "\n";
}

}  // namespace perfbench
