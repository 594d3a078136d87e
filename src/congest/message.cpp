#include "congest/message.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace arbods {

using detail::get_bits;
using detail::kind_words;
using detail::kKindsPerWord;
using detail::put_bits;

int MessageSizeModel::width_of(FieldKind kind) const {
  switch (kind) {
    case FieldKind::kNodeId: return id_bits;
    case FieldKind::kWeight: return weight_bits;
    case FieldKind::kLevel: return level_bits;
    case FieldKind::kFlag: return flag_bits;
    case FieldKind::kReal: return real_bits;
    case FieldKind::kTag: return tag_bits;
  }
  return 0;
}

// ----------------------------------------------------------------- builder

Message& Message::push(const Field& f) {
  if (size_ < kInlineFields) {
    inline_[size_] = f;
  } else {
    overflow_.push_back(f);
  }
  ++size_;
  return *this;
}

const Field& Message::field(std::size_t i) const {
  ARBODS_CHECK_MSG(i < size_, "field index " << i << " out of range");
  return i < kInlineFields ? inline_[i] : overflow_[i - kInlineFields];
}

Message Message::tagged(int tag) {
  Message m;
  m.push({FieldKind::kTag, tag, 0.0});
  return m;
}

Message& Message::add_id(NodeId v) {
  return push({FieldKind::kNodeId, static_cast<std::int64_t>(v), 0.0});
}

Message& Message::add_weight(Weight w) {
  return push({FieldKind::kWeight, w, 0.0});
}

Message& Message::add_level(std::int64_t level) {
  return push({FieldKind::kLevel, level, 0.0});
}

Message& Message::add_flag(bool b) {
  return push({FieldKind::kFlag, b ? 1 : 0, 0.0});
}

Message& Message::add_real(double x) {
  return push({FieldKind::kReal, 0, x});
}

const Field& Message::field_checked(std::size_t i, FieldKind kind) const {
  const Field& f = field(i);
  ARBODS_CHECK_MSG(f.kind == kind, "field " << i << " kind mismatch");
  return f;
}

int Message::tag() const {
  if (size_ == 0 || inline_[0].kind != FieldKind::kTag) return -1;
  return static_cast<int>(inline_[0].ivalue);
}

int Message::tag_at(std::size_t i) const {
  return static_cast<int>(field_checked(i, FieldKind::kTag).ivalue);
}

NodeId Message::id_at(std::size_t i) const {
  return static_cast<NodeId>(field_checked(i, FieldKind::kNodeId).ivalue);
}

Weight Message::weight_at(std::size_t i) const {
  return field_checked(i, FieldKind::kWeight).ivalue;
}

std::int64_t Message::level_at(std::size_t i) const {
  return field_checked(i, FieldKind::kLevel).ivalue;
}

bool Message::flag_at(std::size_t i) const {
  return field_checked(i, FieldKind::kFlag).ivalue != 0;
}

double Message::real_at(std::size_t i) const {
  return field_checked(i, FieldKind::kReal).rvalue;
}

int Message::bit_size(const MessageSizeModel& model) const {
  int bits = 0;
  for (std::size_t i = 0; i < size_; ++i) bits += model.width_of(kind_at(i));
  return bits;
}

void Message::quantize_reals(const FixedPointCodec& codec) {
  for (std::size_t i = 0; i < size_; ++i) {
    Field& f = i < kInlineFields ? inline_[i] : overflow_[i - kInlineFields];
    if (f.kind == FieldKind::kReal) f.rvalue = codec.decode(codec.encode(f.rvalue));
  }
}

// --------------------------------------------------------------- wire form

namespace {

// The integer payload of a field as the wire carries it.
std::uint64_t field_wire_value(const Field& f, bool quantized_reals) {
  if (f.kind != FieldKind::kReal)
    return static_cast<std::uint64_t>(f.ivalue);
  if (quantized_reals) return default_value_codec().encode(f.rvalue);
  return std::bit_cast<std::uint64_t>(f.rvalue);
}

}  // namespace

int wire_field_bits(FieldKind kind, const MessageSizeModel& model,
                    bool quantized_reals) {
  if (kind == FieldKind::kReal && !quantized_reals) return 64;
  const int w = model.width_of(kind);
  ARBODS_DCHECK(w >= 0 && w <= 64);
  return w;
}

int wire_payload_bits(const Message& m, const MessageSizeModel& model) {
  return m.bit_size(model);
}

std::size_t wire_words(const Message& m, const MessageSizeModel& model,
                       bool quantized_reals) {
  const std::size_t nf = m.num_fields();
  std::size_t payload_bits = 0;
  for (std::size_t i = 0; i < nf; ++i)
    payload_bits += static_cast<std::size_t>(
        wire_field_bits(m.kind_at(i), model, quantized_reals));
  return 1 + kind_words(nf) + (payload_bits + 63) / 64;
}

std::size_t wire_encode(const Message& m, NodeId sender,
                        const MessageSizeModel& model, bool quantized_reals,
                        std::uint64_t* dst, int* accounted_bits) {
  const std::size_t nf = m.num_fields();
  ARBODS_CHECK_MSG(nf <= 0xffff, "message with " << nf << " fields");
  const std::size_t kwords = kind_words(nf);
  std::uint64_t* payload = dst + 1 + kwords;

  // Kind nibbles, payload bit length and accounted bit length in one pass.
  std::size_t payload_bits = 0;
  int model_bits = 0;
  for (std::size_t w = 0; w < kwords; ++w) {
    std::uint64_t packed = 0;
    const std::size_t base = w * kKindsPerWord;
    const std::size_t end = std::min(nf - base, kKindsPerWord);
    for (std::size_t j = 0; j < end; ++j) {
      const FieldKind kind = m.kind_at(base + j);
      packed |= static_cast<std::uint64_t>(kind) << (4 * j);
      payload_bits += static_cast<std::size_t>(
          wire_field_bits(kind, model, quantized_reals));
      model_bits += model.width_of(kind);
    }
    dst[1 + w] = packed;
  }
  if (accounted_bits != nullptr) *accounted_bits = model_bits;
  const std::size_t payload_words = (payload_bits + 63) / 64;
  const std::size_t total = 1 + kwords + payload_words;
  ARBODS_CHECK_MSG(total <= 0xffff, "wire record of " << total << " words");

  dst[0] = static_cast<std::uint64_t>(sender) |
           (static_cast<std::uint64_t>(nf) << 32) |
           (static_cast<std::uint64_t>(total) << 48);

  for (std::size_t w = 0; w < payload_words; ++w) payload[w] = 0;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    const Field& f = m.field(i);
    const int width = wire_field_bits(f.kind, model, quantized_reals);
    const std::uint64_t value = field_wire_value(f, quantized_reals);
    // The wire is lossless for every value the solvers send: ids < n,
    // weights <= the instance maximum, levels/counters within the model's
    // budget, tags < 16. A wider value here (including a negative integer
    // field, which sign-extends to all-ones) is a solver bug, not a
    // quantization channel — fail loudly instead of truncating to garbage.
    ARBODS_CHECK_MSG(width >= 64 || (value >> width) == 0,
                     "field " << i << " value " << value << " exceeds "
                              << width << "-bit wire width");
    put_bits(payload, pos, value, width);
    pos += static_cast<std::size_t>(width);
  }
  return total;
}

// ------------------------------------------------------------------ views

FieldKind MessageView::kind_at(std::size_t i) const {
  ARBODS_CHECK_MSG(i < num_fields(), "field index " << i << " out of range");
  const std::uint64_t word = words_[1 + i / kKindsPerWord];
  return static_cast<FieldKind>((word >> (4 * (i % kKindsPerWord))) & 0xf);
}

std::size_t MessageView::payload_offset(std::size_t i) const {
  std::size_t pos = 0;
  for (std::size_t j = 0; j < i; ++j)
    pos += static_cast<std::size_t>(
        wire_field_bits(kind_at(j), *model_, quantized_));
  return pos;
}

std::uint64_t MessageView::payload_bits_at(std::size_t i, FieldKind kind) const {
  const std::size_t nf = num_fields();
  ARBODS_CHECK_MSG(i < nf, "field index " << i << " out of range");
  ARBODS_CHECK_MSG(kind_at(i) == kind, "field " << i << " kind mismatch");
  const std::uint64_t* payload = words_ + 1 + kind_words(nf);
  return get_bits(payload, payload_offset(i),
                  wire_field_bits(kind, *model_, quantized_));
}

Message& Message::append_fields(const MessageView& src, std::size_t first) {
  const std::size_t nf = src.num_fields();
  const std::uint64_t* payload = src.words_ + 1 + kind_words(nf);
  std::size_t pos = src.payload_offset(first);
  for (std::size_t i = first; i < nf; ++i) {
    const FieldKind kind = src.kind_at(i);
    const int width = wire_field_bits(kind, *src.model_, src.quantized_);
    const std::uint64_t bits = get_bits(payload, pos, width);
    pos += static_cast<std::size_t>(width);
    if (kind != FieldKind::kReal) {
      push({kind, static_cast<std::int64_t>(bits), 0.0});
    } else {
      push({kind, 0, src.quantized_ ? default_value_codec().decode(bits)
                                    : std::bit_cast<double>(bits)});
    }
  }
  return *this;
}

int MessageView::tag() const {
  // The hottest accessor in the simulator (called once per delivered
  // message by every multiplexing algorithm): hand-specialized for field 0
  // at payload offset 0 — three dependent loads and a mask, no scans.
  const std::size_t nf = (words_[0] >> 32) & 0xffffu;
  if (nf == 0 || static_cast<FieldKind>(words_[1] & 0xf) != FieldKind::kTag)
    return -1;
  const std::uint64_t* payload = words_ + 1 + kind_words(nf);
  const int width = model_->tag_bits;
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  return static_cast<int>(payload[0] & mask);
}

int MessageView::tag_at(std::size_t i) const {
  return static_cast<int>(payload_bits_at(i, FieldKind::kTag));
}

NodeId MessageView::id_at(std::size_t i) const {
  return static_cast<NodeId>(payload_bits_at(i, FieldKind::kNodeId));
}

Weight MessageView::weight_at(std::size_t i) const {
  return static_cast<Weight>(payload_bits_at(i, FieldKind::kWeight));
}

std::int64_t MessageView::level_at(std::size_t i) const {
  return static_cast<std::int64_t>(payload_bits_at(i, FieldKind::kLevel));
}

bool MessageView::flag_at(std::size_t i) const {
  return payload_bits_at(i, FieldKind::kFlag) != 0;
}

double MessageView::real_at(std::size_t i) const {
  const std::uint64_t bits = payload_bits_at(i, FieldKind::kReal);
  if (quantized_) return default_value_codec().decode(bits);
  return std::bit_cast<double>(bits);
}

}  // namespace arbods
