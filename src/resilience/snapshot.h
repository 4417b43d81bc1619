// Crash-durable ruleset snapshots.
//
// The PTI trust vocabulary is built by broadcasting fragment updates to the
// daemon fleet; after a crash the gateway used to restart at version 0 with
// an empty ruleset and re-learn everything from scratch. A snapshot
// persists the applied fragment set plus its version so a restarted
// gateway warm-starts at the version it crashed at.
//
// Durability discipline:
//   * writes go to `<path>.tmp`, are fsync'd, then atomically renamed over
//     the target — a crash mid-write leaves the previous snapshot intact;
//   * the payload carries a magic/format tag and an FNV-1a checksum over
//     every preceding byte; the loader re-verifies both.
//
// Loading is fail-closed: any anomaly (short file, bad magic, version skew
// of the format, checksum mismatch, truncated fragment) returns an error
// and the caller starts cold at version 0 — a corrupt snapshot must never
// widen the trust vocabulary.
#pragma once

#include <cstdint>
#include <string>

#include "phpsrc/fragments.h"
#include "util/status.h"

namespace joza::resilience {

inline constexpr char kSnapshotMagic[8] = {'J', 'Z', 'S', 'N',
                                           'A', 'P', '0', '1'};

struct RulesetSnapshotData {
  std::uint64_t version = 0;
  php::FragmentSet fragments;
};

// Serializes `fragments` + `version` to `path` via write-tmp/fsync/rename.
// Consults the kSnapshotIo fault point (injected failures surface as
// Unavailable and leave the previous snapshot untouched).
Status SaveRulesetSnapshot(const std::string& path,
                           const php::FragmentSet& fragments,
                           std::uint64_t version);

// Parses and verifies the snapshot at `path`. Fail-closed: every anomaly
// is an error; the returned data is only populated on full verification.
StatusOr<RulesetSnapshotData> LoadRulesetSnapshot(const std::string& path);

// Parses a snapshot image already in memory (the loader's core; exposed so
// fuzzers can drive it without filesystem round trips).
StatusOr<RulesetSnapshotData> ParseRulesetSnapshot(std::string_view image);

// Serializes to an in-memory image (round-trip testing).
std::string EncodeRulesetSnapshot(const php::FragmentSet& fragments,
                                  std::uint64_t version);

// --- Tenant-qualified snapshots --------------------------------------------
//
// A multi-tenant deployment persists one snapshot per tenant; qualifying
// the configured base path (rather than taking N paths) keeps the CLI
// surface unchanged. The single-engine gateway persists as the default
// tenant, so both shapes read and write "<base>.<tenant>" and nothing else:
// an un-suffixed "<base>" is never read.

// Name of the implicit tenant every request without an explicit tenant id
// routes to.
inline constexpr char kDefaultTenantName[] = "default";

// "<base>.<tenant>". The tenant id must already be validated by the caller
// (the fleet rejects anything outside [A-Za-z0-9_-]{1,64}, so a qualified
// path can never traverse out of the base path's directory).
std::string TenantSnapshotPath(const std::string& base,
                               std::string_view tenant);

}  // namespace joza::resilience
