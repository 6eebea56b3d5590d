//! Property tests for the ROF format: serialization is a bijection on
//! valid objects/executables, and parsing is total on arbitrary bytes.

use proptest::prelude::*;
use rr_obj::{
    link, Executable, ObjectFile, RelocKind, Relocation, SectionKind, Symbol, SymbolKind,
};

fn any_section_kind() -> impl Strategy<Value = SectionKind> {
    (0u8..4).prop_map(|c| SectionKind::from_code(c).expect("in range"))
}

fn any_symbol() -> impl Strategy<Value = Symbol> {
    ("[a-z_][a-z0-9_]{0,12}", any_section_kind(), 0u64..0x1000, 0u8..3, any::<bool>()).prop_map(
        |(name, section, offset, kind, global)| Symbol {
            name,
            section,
            offset,
            kind: SymbolKind::from_code(kind).expect("in range"),
            global,
        },
    )
}

fn any_reloc() -> impl Strategy<Value = Relocation> {
    (any_section_kind(), 0u64..0x1000, 0u8..2, "[a-z_][a-z0-9_]{0,12}", -64i64..64).prop_map(
        |(section, offset, kind, symbol, addend)| Relocation {
            section,
            offset,
            kind: RelocKind::from_code(kind).expect("in range"),
            symbol,
            addend,
        },
    )
}

fn any_object() -> impl Strategy<Value = ObjectFile> {
    (
        "[a-z][a-z0-9_.]{0,16}",
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(any::<u8>(), 0..64),
        0u64..128,
        proptest::collection::vec(any_symbol(), 0..6),
        proptest::collection::vec(any_reloc(), 0..6),
    )
        .prop_map(|(name, text, data, bss, symbols, relocs)| {
            let mut obj = ObjectFile::new(name);
            obj.section_mut(SectionKind::Text).data = text;
            obj.section_mut(SectionKind::Data).data = data;
            obj.section_mut(SectionKind::Bss).zero_size = bss;
            obj.symbols = symbols;
            obj.relocs = relocs;
            obj
        })
}

proptest! {
    /// Object serialization round-trips exactly.
    #[test]
    fn object_bytes_round_trip(obj in any_object()) {
        let bytes = obj.to_bytes();
        let parsed = ObjectFile::from_bytes(&bytes).expect("own output must parse");
        prop_assert_eq!(parsed, obj);
    }

    /// Parsing arbitrary bytes never panics or aborts. The random tail
    /// follows the real magic, so the counts and fields behind it are
    /// actually parsed rather than stopped at a bad magic.
    #[test]
    fn object_parsing_is_total(tail in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ObjectFile::from_bytes(&[b"ROF1".as_slice(), &tail].concat());
        let _ = Executable::from_bytes(&[b"RFX1".as_slice(), &tail].concat());
    }

    /// Linked executables round-trip through their file format, and
    /// linking is deterministic.
    #[test]
    fn executable_bytes_round_trip(code in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut obj = ObjectFile::new("m");
        obj.section_mut(SectionKind::Text).data = code;
        obj.symbols.push(Symbol::global("_start", SectionKind::Text, 0, SymbolKind::Func));
        let exe1 = link(&[obj.clone()]).expect("links");
        let exe2 = link(&[obj]).expect("links");
        prop_assert_eq!(&exe1, &exe2, "linking must be deterministic");
        let parsed = Executable::from_bytes(&exe1.to_bytes()).expect("parses");
        prop_assert_eq!(parsed, exe1);
    }

    /// Every mutation of a serialized object either fails to parse or
    /// parses to a *different* value — the format has no silently-ignored
    /// bytes (every byte is load-bearing).
    #[test]
    fn no_silently_ignored_bytes(obj in any_object(), index in any::<prop::sample::Index>(), bit in 0u8..8) {
        let bytes = obj.to_bytes();
        let i = index.index(bytes.len());
        let mut mutated = bytes.clone();
        mutated[i] ^= 1 << bit;
        if let Ok(parsed) = ObjectFile::from_bytes(&mutated) {
            prop_assert_ne!(parsed, obj, "flipping byte {} bit {} was silent", i, bit);
        }
    }
}
