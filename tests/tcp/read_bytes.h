// Copying reads for tests. The library reads received bytes only in place
// (TcpConnection::consume, ReassemblyBuffer::consume); a test that wants
// them as a value collects the spans here.
#pragma once

#include <cstddef>

#include "net/bytes.h"
#include "tcp/connection.h"
#include "tcp/reassembly.h"

namespace sttcp::tcp::testing {

/// Consume up to `max` in-order bytes from `from` and return them.
template <class Source>
net::Bytes read_bytes(Source& from, std::size_t max) {
  net::Bytes out;
  from.consume(max, [&out](net::BytesView v) { out.insert(out.end(), v.begin(), v.end()); });
  return out;
}

}  // namespace sttcp::tcp::testing
