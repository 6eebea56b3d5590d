//! Relocatable object files.

use crate::{Relocation, Section, SectionKind, Symbol};

/// A relocatable ROF object: sections plus the symbol and relocation tables
/// that [`crate::link`] consumes (and discards).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectFile {
    /// Informational name (source file or module).
    pub name: String,
    sections: [Section; 4],
    /// Symbol table. Globals must be unique across all linked objects.
    pub symbols: Vec<Symbol>,
    /// Relocation table.
    pub relocs: Vec<Relocation>,
}

impl ObjectFile {
    /// Creates an empty object file.
    ///
    /// # Example
    ///
    /// ```
    /// use rr_obj::{ObjectFile, SectionKind};
    ///
    /// let obj = ObjectFile::new("m");
    /// assert!(obj.section(SectionKind::Text).is_empty());
    /// ```
    pub fn new(name: impl Into<String>) -> ObjectFile {
        ObjectFile { name: name.into(), ..ObjectFile::default() }
    }

    /// The section of the given kind (always present, possibly empty).
    pub fn section(&self, kind: SectionKind) -> &Section {
        &self.sections[kind as usize]
    }

    /// Mutable access to the section of the given kind.
    pub fn section_mut(&mut self, kind: SectionKind) -> &mut Section {
        &mut self.sections[kind as usize]
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Iterates over `(kind, section)` pairs in layout order.
    pub fn sections(&self) -> impl Iterator<Item = (SectionKind, &Section)> {
        SectionKind::ALL.into_iter().map(move |k| (k, self.section(k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolKind;

    #[test]
    fn sections_start_empty() {
        let obj = ObjectFile::new("t");
        for (_, s) in obj.sections() {
            assert!(s.is_empty());
        }
    }

    #[test]
    fn section_mut_is_persistent() {
        let mut obj = ObjectFile::new("t");
        obj.section_mut(SectionKind::Data).data = vec![1, 2, 3];
        assert_eq!(obj.section(SectionKind::Data).size(), 3);
        assert!(obj.section(SectionKind::Text).is_empty());
    }

    #[test]
    fn symbol_lookup() {
        let mut obj = ObjectFile::new("t");
        obj.symbols.push(Symbol::global("main", SectionKind::Text, 4, SymbolKind::Func));
        assert_eq!(obj.symbol("main").unwrap().offset, 4);
        assert!(obj.symbol("absent").is_none());
    }
}
