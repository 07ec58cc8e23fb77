#include "http/redirect_miner.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace dm::http {
namespace {

using dm::util::ifind;
using dm::util::to_lower;

int hex_val(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Pulls an absolute http(s) URL starting at `pos` (which must point at the
/// scheme); stops at quotes, whitespace, angle brackets or backslash.
std::string read_url(std::string_view text, std::size_t pos) {
  std::size_t end = pos;
  while (end < text.size()) {
    const char c = text[end];
    if (c == '"' || c == '\'' || c == ' ' || c == '\t' || c == '\n' ||
        c == '\r' || c == '<' || c == '>' || c == '\\' || c == ')' || c == ';') {
      break;
    }
    ++end;
  }
  return std::string(text.substr(pos, end - pos));
}

/// All absolute URLs appearing in `text`.
std::vector<std::string> find_urls(std::string_view text) {
  std::vector<std::string> urls;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto at = ifind(text.substr(pos), "http");
    if (at == std::string_view::npos) break;
    const std::size_t abs = pos + at;
    const auto rest = text.substr(abs);
    if (dm::util::istarts_with(rest, "http://") ||
        dm::util::istarts_with(rest, "https://")) {
      auto url = read_url(text, abs);
      if (url.size() > 10) urls.push_back(std::move(url));
      pos = abs + 7;
    } else {
      pos = abs + 4;
    }
  }
  return urls;
}

/// Extracts the attribute value following `needle` (e.g. `src=`), handling
/// both quoted and bare forms.  Returns empty when not found after `from`.
std::pair<std::string, std::size_t> attr_value_after(std::string_view text,
                                                     std::size_t from,
                                                     std::string_view needle) {
  const auto at = ifind(text.substr(from), needle);
  if (at == std::string_view::npos) return {{}, std::string_view::npos};
  std::size_t pos = from + at + needle.size();
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '=')) ++pos;
  if (pos >= text.size()) return {{}, std::string_view::npos};
  char quote = 0;
  if (text[pos] == '"' || text[pos] == '\'') quote = text[pos++];
  std::size_t end = pos;
  while (end < text.size()) {
    const char c = text[end];
    if (quote ? c == quote : (c == ' ' || c == '>' || c == '"' || c == '\'')) break;
    ++end;
  }
  return {std::string(text.substr(pos, end - pos)), end};
}

void add_evidence(std::vector<RedirectEvidence>& out, std::string url,
                  RedirectKind kind) {
  std::string host = host_of_url(url);
  if (host.empty()) return;
  // Dedup identical (url, kind) pairs.
  for (const auto& e : out) {
    if (e.target_url == url && e.kind == kind) return;
  }
  out.push_back({std::move(url), std::move(host), kind});
}

void mine_meta_refresh(std::string_view body, std::vector<RedirectEvidence>& out) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    const auto at = ifind(body.substr(pos), "http-equiv");
    if (at == std::string_view::npos) break;
    const std::size_t abs = pos + at;
    // Check it's a refresh meta within a reasonable window.
    const auto window = body.substr(abs, 400);
    if (ifind(window, "refresh") != std::string_view::npos) {
      const auto [content, end] = attr_value_after(body, abs, "content");
      if (!content.empty()) {
        const auto url_at = ifind(content, "url=");
        if (url_at != std::string_view::npos) {
          add_evidence(out, std::string(dm::util::trim(
                                std::string_view(content).substr(url_at + 4))),
                       RedirectKind::kMetaRefresh);
        }
      }
    }
    pos = abs + 10;
  }
}

void mine_iframes(std::string_view body, std::vector<RedirectEvidence>& out) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    const auto at = ifind(body.substr(pos), "<iframe");
    if (at == std::string_view::npos) break;
    const std::size_t abs = pos + at;
    const auto [src, end] = attr_value_after(body, abs, "src");
    if (!src.empty()) add_evidence(out, src, RedirectKind::kIframe);
    pos = abs + 7;
  }
}

void mine_js_locations(std::string_view body, RedirectKind kind,
                       std::vector<RedirectEvidence>& out) {
  static constexpr std::string_view kPatterns[] = {
      "window.location", "document.location", "location.href",
      "top.location",    "location.replace",  "location.assign",
  };
  for (auto pattern : kPatterns) {
    std::size_t pos = 0;
    while (pos < body.size()) {
      const auto at = ifind(body.substr(pos), pattern);
      if (at == std::string_view::npos) break;
      const std::size_t abs = pos + at;
      // Look for an absolute URL within the next 300 chars.
      const auto window = body.substr(abs, 300);
      for (auto& url : find_urls(window)) {
        add_evidence(out, std::move(url), kind);
      }
      pos = abs + pattern.size();
    }
  }
}

}  // namespace

std::string_view redirect_kind_name(RedirectKind kind) noexcept {
  switch (kind) {
    case RedirectKind::kLocationHeader: return "location-header";
    case RedirectKind::kMetaRefresh: return "meta-refresh";
    case RedirectKind::kIframe: return "iframe";
    case RedirectKind::kJavaScript: return "javascript";
    case RedirectKind::kObfuscatedJavaScript: return "obfuscated-js";
  }
  return "?";
}

std::string host_of_url(std::string_view url) {
  std::string_view rest;
  if (dm::util::istarts_with(url, "http://")) {
    rest = url.substr(7);
  } else if (dm::util::istarts_with(url, "https://")) {
    rest = url.substr(8);
  } else {
    return {};
  }
  const auto end = rest.find_first_of("/:?#");
  const auto host = end == std::string_view::npos ? rest : rest.substr(0, end);
  if (host.empty()) return {};
  return to_lower(host);
}

std::string decode_obfuscated_layers(std::string_view text) {
  std::string decoded;

  // Layer 1: \xHH and \uHHHH escapes anywhere in the body.  Both start
  // with a backslash, and most bodies hold none: those skip the copy.
  if (text.find('\\') != std::string_view::npos) {
    std::string unescaped;
    bool saw_escape = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\\' && i + 3 < text.size() && text[i + 1] == 'x') {
        const int hi = hex_val(text[i + 2]);
        const int lo = hex_val(text[i + 3]);
        if (hi >= 0 && lo >= 0) {
          unescaped += static_cast<char>(hi * 16 + lo);
          i += 3;
          saw_escape = true;
          continue;
        }
      }
      if (text[i] == '\\' && i + 5 < text.size() && text[i + 1] == 'u') {
        const int a = hex_val(text[i + 2]);
        const int b = hex_val(text[i + 3]);
        const int c = hex_val(text[i + 4]);
        const int d = hex_val(text[i + 5]);
        if (a >= 0 && b >= 0 && c >= 0 && d >= 0) {
          const int code = ((a * 16 + b) * 16 + c) * 16 + d;
          if (code < 128) unescaped += static_cast<char>(code);
          i += 5;
          saw_escape = true;
          continue;
        }
      }
      unescaped += text[i];
    }
    if (saw_escape) decoded += unescaped;
  }

  // Layer 2: unescape('%68%74...') percent-encoding.
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto at = ifind(text.substr(pos), "unescape(");
    if (at == std::string_view::npos) break;
    std::size_t start = pos + at + 9;
    if (start < text.size() && (text[start] == '"' || text[start] == '\'')) {
      const char quote = text[start];
      const auto end = text.find(quote, start + 1);
      if (end != std::string_view::npos) {
        decoded += dm::util::url_decode(text.substr(start + 1, end - start - 1));
      }
    }
    pos = start;
  }

  // Layer 3: atob('...') base64.
  pos = 0;
  while (pos < text.size()) {
    const auto at = ifind(text.substr(pos), "atob(");
    if (at == std::string_view::npos) break;
    std::size_t start = pos + at + 5;
    if (start < text.size() && (text[start] == '"' || text[start] == '\'')) {
      const char quote = text[start];
      const auto end = text.find(quote, start + 1);
      if (end != std::string_view::npos) {
        decoded += dm::util::base64_decode(text.substr(start + 1, end - start - 1));
      }
    }
    pos = start;
  }
  return decoded;
}

std::vector<RedirectEvidence> mine_redirects(const HttpTransaction& txn,
                                             const RedirectMinerOptions& options) {
  std::vector<RedirectEvidence> out;
  if (!txn.response) return out;
  const HttpResponse& res = *txn.response;

  if (res.is_redirect()) {
    if (const auto loc = res.location()) {
      add_evidence(out, std::string(*loc), RedirectKind::kLocationHeader);
    }
  }

  if (res.body.empty() || res.body.size() > options.max_body_bytes) return out;
  // Only mine markup/script bodies.
  const auto ct = res.content_type().value_or("");
  const bool minable = ct.empty() ||
                       ifind(ct, "html") != std::string_view::npos ||
                       ifind(ct, "javascript") != std::string_view::npos ||
                       ifind(ct, "ecmascript") != std::string_view::npos;
  if (!minable) return out;

  mine_meta_refresh(res.body, out);
  mine_iframes(res.body, out);
  mine_js_locations(res.body, RedirectKind::kJavaScript, out);

  if (options.deobfuscate) {
    const std::string layer = decode_obfuscated_layers(res.body);
    if (!layer.empty()) {
      mine_js_locations(layer, RedirectKind::kObfuscatedJavaScript, out);
      mine_iframes(layer, out);
      // A decoded layer consisting of a bare URL is itself evidence.
      const auto urls = find_urls(layer);
      // Only treat bare URLs as redirects when the visible body had none —
      // benign pages embed absolute links everywhere.
      if (out.empty()) {
        for (const auto& url : urls) {
          add_evidence(out, url, RedirectKind::kObfuscatedJavaScript);
        }
      }
    }
  }
  return out;
}

}  // namespace dm::http
