#include "trace/serialize.hpp"

#include <fstream>

#include "util/csv.hpp"
#include "util/expect.hpp"

namespace droppkt::trace {

void write_tls_csv(const TlsLog& log, std::ostream& os) {
  util::CsvTable table({"start_s", "end_s", "ul_bytes", "dl_bytes", "sni"});
  for (const auto& t : log) {
    table.add_row({util::format_double(t.start_s), util::format_double(t.end_s),
                   util::format_double(t.ul_bytes),
                   util::format_double(t.dl_bytes), t.sni});
  }
  table.write(os);
}

void write_tls_csv_file(const TlsLog& log, const std::string& path) {
  std::ofstream ofs(path);
  if (!ofs) throw std::runtime_error("write_tls_csv_file: cannot open " + path);
  write_tls_csv(log, ofs);
}

TlsLog read_tls_csv(std::istream& is) {
  const util::CsvTable table = util::CsvTable::read(is);
  const std::size_t c_start = table.col("start_s");
  const std::size_t c_end = table.col("end_s");
  const std::size_t c_ul = table.col("ul_bytes");
  const std::size_t c_dl = table.col("dl_bytes");
  const std::size_t c_sni = table.col("sni");
  TlsLog log;
  log.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    TlsTransaction t;
    t.start_s = table.at_double(r, c_start);
    t.end_s = table.at_double(r, c_end);
    t.ul_bytes = table.at_double(r, c_ul);
    t.dl_bytes = table.at_double(r, c_dl);
    t.sni = table.at(r, c_sni);
    DROPPKT_EXPECT(t.end_s >= t.start_s,
                   "read_tls_csv: transaction end precedes start");
    log.push_back(std::move(t));
  }
  return log;
}

TlsLog read_tls_csv_file(const std::string& path) {
  std::ifstream ifs(path);
  if (!ifs) throw std::runtime_error("read_tls_csv_file: cannot open " + path);
  return read_tls_csv(ifs);
}

}  // namespace droppkt::trace
