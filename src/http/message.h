// HTTP/1.x message model: requests, responses, and the paired transaction
// unit that the WCG builder consumes.  Header lookup is case-insensitive
// per RFC 7230.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dm::http {

/// A message's header fields in one heap block, in insertion order with
/// duplicates kept.  Each entry is the name's and the value's lengths (four
/// bytes each) followed by the name's and the value's bytes, so all of a
/// message's fields share one allocation.  The block is a
/// std::vector<char> because its bytes stay put when the message moves: a
/// view from get() or from iteration outlives a move of the Headers (a
/// std::string block of 15 bytes or fewer would live inside the object and
/// move with it).
class Headers {
 public:
  /// Appends one field.  Throws std::length_error when the name or the
  /// value is longer than its length prefix can count.
  void add(std::string_view name, std::string_view value);

  /// Block bytes one field takes.  reserve() the sum over a message's
  /// fields before adding them, and the block is allocated once at its
  /// exact size.
  static constexpr std::size_t entry_bytes(std::string_view name,
                                           std::string_view value) noexcept {
    return 2 * sizeof(Length) + name.size() + value.size();
  }
  void reserve(std::size_t bytes) { block_.reserve(bytes); }

  /// First header with the given name (case-insensitive, RFC 7230); nullopt
  /// if absent.  The view points into the block.
  std::optional<std::string_view> get(std::string_view name) const noexcept;

  bool has(std::string_view name) const noexcept { return get(name).has_value(); }

  /// Iteration yields (name, value) views into the block, in insertion
  /// order.
  class const_iterator {
   public:
    using value_type = std::pair<std::string_view, std::string_view>;

    value_type operator*() const noexcept {
      const char* name = at_ + 2 * sizeof(Length);
      const std::size_t name_size = load(at_);
      return {{name, name_size}, {name + name_size, load(at_ + sizeof(Length))}};
    }
    const_iterator& operator++() noexcept {
      const auto value = (**this).second;
      at_ = value.data() + value.size();
      return *this;
    }
    bool operator==(const const_iterator&) const noexcept = default;

   private:
    friend class Headers;
    explicit const_iterator(const char* at) noexcept : at_(at) {}
    static std::size_t load(const char* at) noexcept {
      Length n = 0;
      std::memcpy(&n, at, sizeof n);
      return n;
    }
    const char* at_ = nullptr;
  };

  const_iterator begin() const noexcept { return const_iterator(block_.data()); }
  const_iterator end() const noexcept {
    return const_iterator(block_.data() + block_.size());
  }

 private:
  using Length = std::uint32_t;

  std::vector<char> block_;
};

struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string uri;      // request-target as sent (origin form)
  std::string version;  // "HTTP/1.1"
  Headers headers;
  std::string body;
  std::uint64_t ts_micros = 0;  // arrival time of the request line

  /// Host header value (lower-cased), or empty.
  std::string host() const;
  std::optional<std::string_view> referrer() const noexcept;
  std::optional<std::string_view> user_agent() const noexcept;
};

struct HttpResponse {
  int status_code = 0;
  std::string reason;
  std::string version;
  Headers headers;
  std::string body;
  std::uint64_t ts_micros = 0;

  std::optional<std::string_view> content_type() const noexcept;
  std::optional<std::string_view> location() const noexcept;
  bool is_redirect() const noexcept {
    return status_code >= 300 && status_code < 400;
  }
};

/// One request/response pair between a client and a server, the atomic unit
/// of a web conversation (paper §III: "HTTP request-response transactions").
struct HttpTransaction {
  std::string client_host;  // IP literal of the victim-side endpoint
  std::string server_host;  // Host header if present, else server IP literal
  std::string server_ip;
  std::uint16_t server_port = 0;
  HttpRequest request;
  /// Response may be absent if the capture ended mid-transaction.
  std::optional<HttpResponse> response;
};

}  // namespace dm::http
