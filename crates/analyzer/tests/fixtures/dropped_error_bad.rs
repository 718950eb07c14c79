//! dropped-error bad paths: every discard shape, on results whose
//! error type comes from the call graph (direct, through a `type`
//! alias, through a struct-literal local's field) or from the std
//! textual fallback.

type StoreResult<T> = Result<T, StoreError>;

pub struct Engine {
    disk: Disk,
}

pub struct Disk;

impl Disk {
    fn remove(&self) -> io::Result<()> {
        Ok(())
    }
}

impl Engine {
    fn persist(&self) -> StoreResult<()> {
        Ok(())
    }

    fn rotate(&self) -> io::Result<u64> {
        Ok(0)
    }

    pub fn let_discard(&self) {
        let _ = self.persist(); //~ dropped-error
    }

    pub fn bare_discard(&self) {
        self.persist(); //~ dropped-error
    }

    pub fn ok_discard(&self) {
        self.rotate().ok(); //~ dropped-error
    }

    pub fn local_field_discard() {
        let this = Self { disk: Disk };
        let _ = this.disk.remove(); //~ dropped-error
    }

    pub fn std_discard(&self, file: &File) {
        file.sync_all(); //~ dropped-error
    }
}
