// Renderers for metric snapshots: a human-readable text table (operator
// consoles, bench --obs dumps) and a JSON document (machine ingestion,
// statsReport API). Pure functions over obs::Snapshot — no I/O here.
#pragma once

#include <string>

#include "obs/metrics.h"

namespace sdnshield::obs {

/// Plain-text rendering, one metric per line:
///   counter engine.check.vm_runs 123456
///   gauge   ksd.queue_depth 3
///   hist    ksd.call_ns count=42 mean=183ns p50<=255ns p99<=4095ns
std::string renderText(const Snapshot& snapshot);

/// JSON rendering:
///   {"counters":{"name":v,...},"gauges":{...},
///    "histograms":{"name":{"count":c,"sum":s,"mean":m,
///                          "p50_ns":...,"p90_ns":...,"p99_ns":...,
///                          "buckets":[...]},...}}
/// Bucket arrays are trimmed at the last non-zero bucket.
std::string renderJson(const Snapshot& snapshot);

}  // namespace sdnshield::obs
