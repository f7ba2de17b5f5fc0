#ifndef ICHECK_MEM_TYPE_DESC_HPP
#define ICHECK_MEM_TYPE_DESC_HPP

/**
 * @file
 * Recursive allocation-site type descriptors (Section 4.2).
 *
 * SW-InstantCheck_Tr must know, for every allocated byte, whether it starts
 * a float or a double so the round-off can be applied during state
 * traversal. The paper annotates allocation sites with exactly this
 * information, recursively for structs and arrays; TypeDescriptor is that
 * annotation language.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hashing/state_hash.hpp"
#include "support/types.hpp"

namespace icheck::mem
{

/**
 * The leaf kinds a descriptor bottoms out in.
 */
enum class ScalarKind : std::uint8_t
{
    Int8,
    Int16,
    Int32,
    Int64,
    Float,   ///< 32-bit IEEE-754, subject to FP rounding.
    Double,  ///< 64-bit IEEE-754, subject to FP rounding.
    Pointer, ///< 64-bit simulated address.
    Pad,     ///< Opaque filler bytes (alignment padding).
};

/** Byte width of @p kind (Pad widths are per-field). */
unsigned scalarWidth(ScalarKind kind);

/** ValueClass a scalar hashes as. */
hashing::ValueClass scalarClass(ScalarKind kind);

/**
 * A recursive type shape: scalar, fixed-length array, or struct.
 *
 * Descriptors are immutable and shareable; apps build them once per
 * allocation site with the factory functions below.
 */
class TypeDescriptor
{
  public:
    /** A scalar leaf of @p kind; Pad leaves carry an explicit size. */
    static std::shared_ptr<const TypeDescriptor>
    scalar(ScalarKind kind, std::size_t pad_bytes = 1);

    /** An array of @p count elements of shape @p elem. */
    static std::shared_ptr<const TypeDescriptor>
    array(std::shared_ptr<const TypeDescriptor> elem, std::size_t count);

    /** A struct whose fields lay out sequentially. */
    static std::shared_ptr<const TypeDescriptor>
    record(std::vector<std::shared_ptr<const TypeDescriptor>> fields);

    /** Total size in bytes. */
    std::size_t size() const { return byteSize; }

    /** Whether any Float or Double scalar lies inside this shape. */
    bool hasFp() const { return containsFp; }

    /**
     * Visit every scalar field as visit(offset, kind, width) in layout
     * order. Pad fields are visited too (callers typically hash them raw).
     */
    template <typename Visit>
    void
    forEachScalar(Visit &&visit) const
    {
        walk<false>(0, visit);
    }

    /**
     * Visit only the Float and Double scalars, in layout order, skipping
     * every FP-free subtree without descending into it.
     */
    template <typename Visit>
    void
    forEachFpScalar(Visit &&visit) const
    {
        walk<true>(0, visit);
    }

    /** Short human-readable rendering ("f64[128]" etc.), for reports. */
    std::string describe() const;

  private:
    enum class Shape { Scalar, Array, Struct };

    TypeDescriptor() = default;

    template <bool FpOnly, typename Visit>
    void
    walk(std::size_t base, Visit &visit) const
    {
        if (FpOnly && !containsFp)
            return;
        switch (shape) {
          case Shape::Scalar:
            // A scalar's size is its width (a Pad's is its byte count).
            visit(base, kind, static_cast<unsigned>(byteSize));
            return;
          case Shape::Array: {
            const std::size_t elem_size = element->size();
            if (element->shape == Shape::Scalar) {
                // Arrays of scalars (f64[N] and the like) are the bulk of
                // every image: visit them without a call per element.
                for (std::size_t i = 0; i < count; ++i)
                    visit(base + i * elem_size, element->kind,
                          static_cast<unsigned>(elem_size));
                return;
            }
            for (std::size_t i = 0; i < count; ++i)
                element->walk<FpOnly>(base + i * elem_size, visit);
            return;
          }
          case Shape::Struct: {
            std::size_t offset = base;
            for (const auto &field : fields) {
                field->walk<FpOnly>(offset, visit);
                offset += field->size();
            }
            return;
          }
        }
    }

    Shape shape = Shape::Scalar;
    ScalarKind kind = ScalarKind::Int8;
    std::size_t byteSize = 1;
    std::size_t count = 0;
    bool containsFp = false;
    std::shared_ptr<const TypeDescriptor> element;
    std::vector<std::shared_ptr<const TypeDescriptor>> fields;
};

/** Shared handle to an immutable descriptor. */
using TypeRef = std::shared_ptr<const TypeDescriptor>;

/** Convenience leaves. */
TypeRef tInt8();
TypeRef tInt16();
TypeRef tInt32();
TypeRef tInt64();
TypeRef tFloat();
TypeRef tDouble();
TypeRef tPointer();
TypeRef tPad(std::size_t bytes);

/** Convenience array of @p count doubles/floats/etc. */
TypeRef tArray(TypeRef elem, std::size_t count);

/** Convenience struct. */
TypeRef tStruct(std::vector<TypeRef> fields);

/** Raw untyped bytes (hashed bit-by-bit). */
TypeRef tBytes(std::size_t bytes);

} // namespace icheck::mem

#endif // ICHECK_MEM_TYPE_DESC_HPP
