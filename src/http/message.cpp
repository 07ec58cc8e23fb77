#include "http/message.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/strings.h"

namespace dm::http {

void Headers::add(std::string_view name, std::string_view value) {
  constexpr std::size_t kMax = std::numeric_limits<Length>::max();
  if (name.size() > kMax || value.size() > kMax) {
    throw std::length_error("http::Headers: field longer than its length prefix");
  }
  const Length lengths[2] = {static_cast<Length>(name.size()),
                             static_cast<Length>(value.size())};
  const std::size_t at = block_.size();
  block_.resize(at + entry_bytes(name, value));
  char* out = block_.data() + at;
  std::memcpy(out, lengths, sizeof lengths);
  out = std::copy(name.begin(), name.end(), out + sizeof lengths);
  std::copy(value.begin(), value.end(), out);
}

std::optional<std::string_view> Headers::get(std::string_view name) const noexcept {
  for (const auto& [field, value] : *this) {
    if (dm::util::iequals(field, name)) return value;
  }
  return std::nullopt;
}

std::string HttpRequest::host() const {
  const auto h = headers.get("Host");
  if (!h) return {};
  // Strip an explicit port.
  const auto colon = h->find(':');
  return dm::util::to_lower(colon == std::string_view::npos ? *h
                                                            : h->substr(0, colon));
}

std::optional<std::string_view> HttpRequest::referrer() const noexcept {
  return headers.get("Referer");
}

std::optional<std::string_view> HttpRequest::user_agent() const noexcept {
  return headers.get("User-Agent");
}

std::optional<std::string_view> HttpResponse::content_type() const noexcept {
  return headers.get("Content-Type");
}

std::optional<std::string_view> HttpResponse::location() const noexcept {
  return headers.get("Location");
}

}  // namespace dm::http
