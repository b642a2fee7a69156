// Build provenance: the git revision and build type stamped into the
// binary at configure time. This is the same provenance perfbench's run.py
// records with every run (git revision and dirty flag), surfaced at run
// time so a deployed server or CLI can always say which tree produced it.
//
// The stamp is computed by CMake (`git rev-parse --short HEAD`) when the
// build is configured; a build from an exported tarball reports
// "unknown". A configure-time stamp can lag new commits until the next
// CMake rerun — good enough for provenance, and it keeps incremental
// builds from relinking the world on every commit.
#pragma once

#include <string>

namespace paserta {

/// Short git revision of the configured tree ("unknown" outside git).
const char* build_git_rev();

/// CMake build type ("Release", "Debug", ... or "unknown").
const char* build_type();

/// One-line human stamp: "paserta <rev> (<build type>)".
std::string build_version_string();

}  // namespace paserta
