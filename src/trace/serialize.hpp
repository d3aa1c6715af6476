// CSV import/export for TLS transaction logs.
//
// Matches what a proxy log export would look like: one row per TLS
// transaction with start, end, byte counts and SNI. Used by the examples
// to show how a deployment would feed real proxy data into the estimator.
// The binary record format is the DPFC feed capture (trace/capture.hpp).
#pragma once

#include <iosfwd>
#include <string>

#include "trace/records.hpp"

namespace droppkt::trace {

/// Write a TLS log as CSV (header: start_s,end_s,ul_bytes,dl_bytes,sni).
void write_tls_csv(const TlsLog& log, std::ostream& os);
void write_tls_csv_file(const TlsLog& log, const std::string& path);

/// Parse a TLS log from CSV in the same format. Throws on malformed input.
TlsLog read_tls_csv(std::istream& is);
TlsLog read_tls_csv_file(const std::string& path);

}  // namespace droppkt::trace
