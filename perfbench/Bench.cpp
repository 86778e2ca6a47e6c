//===--- Bench.cpp - Shared pieces of the repository benchmark ------------===//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Json.h"

#include <algorithm>

using namespace espbench;

double espbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

void Checks::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(What);
}

int SpanRecorder::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Current;
  S.Unit = UnitId;
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  Current = static_cast<int>(Spans.size()) - 1;
  return Current;
}

void SpanRecorder::close(int Id) {
  Spans[Id].EndNs = nowNs();
  Current = Spans[Id].Parent;
}

std::string SpanRecorder::json() const {
  using esp::obs::JsonValue;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  JsonValue List = JsonValue::array();
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    JsonValue O = JsonValue::object();
    O.set("id", JsonValue::integer(static_cast<int64_t>(I)));
    O.set("name", JsonValue::str(S.Name));
    O.set("unit", JsonValue::integer(static_cast<int64_t>(S.Unit)));
    O.set("parent", JsonValue::integer(S.Parent));
    O.set("start_ns",
          JsonValue::integer(static_cast<int64_t>(S.StartNs - Base)));
    O.set("end_ns", JsonValue::integer(static_cast<int64_t>(S.EndNs - Base)));
    List.push(std::move(O));
  }
  JsonValue Doc = JsonValue::object();
  Doc.set("spans", std::move(List));
  return Doc.dump();
}
