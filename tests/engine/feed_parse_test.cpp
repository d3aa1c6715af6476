#include <algorithm>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/feed.hpp"
#include "util/expect.hpp"

namespace droppkt::engine {
namespace {

FeedRecord record(std::string client, double start, double end, double ul,
                  double dl, std::size_t http, std::string sni) {
  FeedRecord r;
  r.client = std::move(client);
  r.txn.start_s = start;
  r.txn.end_s = end;
  r.txn.ul_bytes = ul;
  r.txn.dl_bytes = dl;
  r.txn.http_count = http;
  r.txn.sni = std::move(sni);
  return r;
}

std::string line_of(const FeedRecord& r) {
  std::ostringstream os;
  write_feed_line(r, os);
  std::string s = os.str();
  s.pop_back();  // '\n'
  return s;
}

void expect_records_equal(const FeedRecord& a, const FeedRecord& b) {
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.txn.start_s, b.txn.start_s);
  EXPECT_EQ(a.txn.end_s, b.txn.end_s);
  EXPECT_EQ(a.txn.ul_bytes, b.txn.ul_bytes);
  EXPECT_EQ(a.txn.dl_bytes, b.txn.dl_bytes);
  EXPECT_EQ(a.txn.http_count, b.txn.http_count);
  EXPECT_EQ(a.txn.sni, b.txn.sni);
}

TEST(FeedLine, RoundTripIsExact) {
  const FeedRecord r =
      record("client-17", 12.25, 14.5, 843.5, 1.25e6, 7, "video.example.com");
  expect_records_equal(r, parse_feed_line(line_of(r)));
}

TEST(FeedLine, RoundTripPreservesFullDoublePrecision) {
  const FeedRecord r = record("c", 0.1 + 0.2, 1.0 / 3.0, 6.02214076e23,
                              1.7976931348623157e308, 999999999, "");
  expect_records_equal(r, parse_feed_line(line_of(r)));
}

TEST(FeedLine, EmptySniAllowed) {
  const FeedRecord r = record("c", 0.0, 1.0, 1.0, 2.0, 1, "");
  expect_records_equal(r, parse_feed_line(line_of(r)));
}

TEST(FeedLine, RejectsWrongFieldCount) {
  EXPECT_THROW(parse_feed_line("only\tthree\tfields"), ParseError);
  EXPECT_THROW(parse_feed_line("c\t0\t1\t0\t0\t0\tsni\textra"), ParseError);
  EXPECT_THROW(parse_feed_line(""), ParseError);
}

TEST(FeedLine, RejectsEmptyClient) {
  EXPECT_THROW(parse_feed_line("\t0\t1\t0\t0\t0\tsni"), ParseError);
}

TEST(FeedLine, RejectsMalformedNumbers) {
  EXPECT_THROW(parse_feed_line("c\tzero\t1\t0\t0\t0\ts"), ParseError);
  EXPECT_THROW(parse_feed_line("c\t0\t1\t0\t0\t3.5\ts"), ParseError);  // count
  EXPECT_THROW(parse_feed_line("c\t0\t1\t0\t0\t-2\ts"), ParseError);
  EXPECT_THROW(parse_feed_line("c\tnan\t1\t0\t0\t0\ts"), ParseError);
  EXPECT_THROW(parse_feed_line("c\t0\tinf\t0\t0\t0\ts"), ParseError);
  EXPECT_THROW(parse_feed_line("c\t0\t1\t0 \t0\t0\ts"), ParseError);
}

TEST(FeedLine, RejectsInvertedWindow) {
  EXPECT_THROW(parse_feed_line("c\t5\t1\t0\t0\t0\ts"), ParseError);
}

TEST(FeedLine, RejectsNegativeByteCounts) {
  EXPECT_THROW(parse_feed_line("c\t0\t1\t-1\t0\t0\ts"), ParseError);
  EXPECT_THROW(parse_feed_line("c\t0\t1\t0\t-1\t0\ts"), ParseError);
}

TEST(FeedLine, AcceptsOneTrailingCarriageReturn) {
  // A \r\n-terminated feed is fine; the \r is not part of the SNI.
  const FeedRecord r = parse_feed_line("c\t0\t1\t0\t0\t0\tsni\r");
  EXPECT_EQ(r.txn.sni, "sni");
}

TEST(FeedLine, RejectsStrayCarriageReturn) {
  // Fuzzer-found (fuzz/regressions/feed_line/crash-trailing-cr.txt): a CR
  // inside the SNI was silently stripped, so the round trip changed the
  // record. Now any interior CR is a typed reject.
  EXPECT_THROW(parse_feed_line("c\t0\t1\t0\t0\t0\tx\r\r"), ParseError);
  EXPECT_THROW(parse_feed_line("c\r\t0\t1\t0\t0\t0\tx"), ParseError);
}

TEST(FeedLine, WriterRejectsUnescapableFields) {
  EXPECT_THROW(line_of(record("tab\tin-client", 0, 1, 0, 0, 0, "s")),
               ContractViolation);
  EXPECT_THROW(line_of(record("c", 0, 1, 0, 0, 0, "new\nline")),
               ContractViolation);
}

TEST(Feed, StreamRoundTrip) {
  Feed feed;
  feed.push_back(record("a", 0.0, 2.0, 800.0, 1.2e6, 4, "v.example.com"));
  feed.push_back(record("b", 0.5, 3.75, 950.25, 2.5e6, 7, ""));
  std::stringstream ss;
  write_feed(feed, ss);
  const Feed back = read_feed(ss);
  ASSERT_EQ(back.size(), feed.size());
  for (std::size_t i = 0; i < feed.size(); ++i) {
    expect_records_equal(feed[i], back[i]);
  }
}

TEST(Feed, ReadSkipsBlankLines) {
  std::istringstream is("\nc\t0\t1\t0\t0\t0\ts\n\n\n");
  EXPECT_EQ(read_feed(is).size(), 1u);
}

TEST(Feed, ReadReportsOneBasedLineNumber) {
  std::istringstream is("c\t0\t1\t0\t0\t0\ts\nbroken line\n");
  try {
    read_feed(is);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

/// Serves `total` bytes of 'a' (no newline), one `chunk`-sized buffer at a
/// time, and counts the bytes it has handed out.
class EndlessLineBuf : public std::streambuf {
 public:
  EndlessLineBuf(std::size_t total, std::size_t chunk)
      : remaining_(total), chunk_(chunk, 'a') {}
  std::size_t served() const { return served_; }

 protected:
  int_type underflow() override {
    if (remaining_ == 0) return traits_type::eof();
    const std::size_t n = std::min(remaining_, chunk_.size());
    remaining_ -= n;
    served_ += n;
    setg(chunk_.data(), chunk_.data(), chunk_.data() + n);
    return traits_type::to_int_type(chunk_[0]);
  }

 private:
  std::size_t remaining_;
  std::size_t served_ = 0;
  std::vector<char> chunk_;
};

TEST(Feed, ReadStopsAtTheLineLimit) {
  // A pipe that never sends a newline must not be buffered whole: the
  // reader gives up once the line outgrows kMaxLineBytes.
  constexpr std::size_t kChunk = 64 * 1024;
  EndlessLineBuf buf(64u << 20, kChunk);
  std::istream is(&buf);
  EXPECT_THROW(read_feed(is), ParseError);
  EXPECT_LE(buf.served(), kMaxLineBytes + kChunk);
}

}  // namespace
}  // namespace droppkt::engine
