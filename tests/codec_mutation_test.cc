// Malformed input: every golden frame (tests/wire_cases.h), truncated at
// every offset and with 0xFFFFFFFF written over every 4-byte window (so
// over every length prefix), must either decode or throw CodecError.  No
// other exception (std::bad_alloc from sizing a container off a corrupt
// count), no out-of-bounds read: the sanitizer CI job runs this too.
#include <gtest/gtest.h>

#include <cstring>
#include <exception>
#include <string>

#include "wire_cases.h"

namespace faastcc {
namespace {

// Empty string when `bytes` decodes or is rejected with CodecError;
// otherwise what went wrong.
std::string decode_outcome(const wire_cases::WireCase& c, Buffer bytes) {
  try {
    c.decode(std::make_shared<const Buffer>(std::move(bytes)));
  } catch (const CodecError&) {
  } catch (const std::exception& e) {
    return std::string("threw ") + e.what();
  }
  return "";
}

TEST(CodecMutation, TruncatedFramesDecodeOrThrowCodecError) {
  for (const auto& c : wire_cases::all()) {
    for (size_t len = 0; len < c.bytes.size(); ++len) {
      const Buffer cut(c.bytes.begin(), c.bytes.begin() + len);
      EXPECT_EQ(decode_outcome(c, cut), "") << c.name << " cut at " << len;
    }
  }
}

TEST(CodecMutation, SaturatedLengthPrefixesDecodeOrThrowCodecError) {
  for (const auto& c : wire_cases::all()) {
    for (size_t off = 0; off + 4 <= c.bytes.size(); ++off) {
      Buffer bad = c.bytes;
      std::memset(bad.data() + off, 0xff, 4);
      EXPECT_EQ(decode_outcome(c, bad), "") << c.name << " at " << off;
    }
  }
}

TEST(CodecMutation, HugeCountWithoutElementsIsCodecError) {
  // Count 0xFFFFFFFF and nothing behind it: rejected before any container
  // is sized from it.
  BufWriter read_req;
  read_req(Timestamp(5), uint32_t{0xffffffff});
  EXPECT_THROW(decode_message<storage::TccReadReq>(read_req.take()),
               CodecError);
  BufWriter get_req;
  get_req(uint32_t{0xffffffff});
  EXPECT_THROW(decode_message<storage::EvGetReq>(get_req.take()),
               CodecError);
}

TEST(CodecMutation, ReadStatusOutsideItsEnumIsRejected) {
  auto frame = [](uint8_t status) {
    BufWriter w;
    w(Timestamp(5), uint32_t{1}, Key{7}, status);
    return w.take();
  };
  using storage::TccReadResp;
  const auto ok = decode_message<TccReadResp>(frame(3));
  ASSERT_EQ(ok.entries.size(), 1u);
  EXPECT_EQ(ok.entries[0].status, TccReadResp::Status::kWrongOwner);
  EXPECT_THROW(decode_message<TccReadResp>(frame(4)), CodecError);
  EXPECT_THROW(decode_message<TccReadResp>(frame(9)), CodecError);
}

}  // namespace
}  // namespace faastcc
