//! The write path of the baselines that keep one version per record
//! (Naive, Fuzzy): a [`DualVersionStore`] whose stable side is never
//! touched. What distinguishes those two schemes is only *when* their
//! checkpoint reads the live versions.

use calc_common::types::{Key, Value};
use calc_storage::dual::{DualVersionStore, StoreError};

use calc_core::strategy::{TxnToken, WriteKind};

/// `apply_write`: overwrite the live version.
pub(crate) fn write(
    store: &DualVersionStore,
    token: &mut TxnToken,
    key: Key,
    value: &[u8],
) -> Result<Option<Value>, StoreError> {
    let mut g = store
        .locked_slot_of(key)
        .ok_or(StoreError::KeyNotFound(key))?;
    let old = g.set_live(value);
    token.record(key, g.slot(), WriteKind::Update);
    Ok(old)
}

/// `apply_insert`: `false` if the key already exists.
pub(crate) fn insert(
    store: &DualVersionStore,
    token: &mut TxnToken,
    key: Key,
    value: &[u8],
) -> Result<bool, StoreError> {
    match store.insert(key, value) {
        Ok(slot) => {
            token.record(key, slot, WriteKind::Insert);
            Ok(true)
        }
        Err(StoreError::DuplicateKey(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// `apply_delete`: clear the live version and unlink the key under the
/// slot guard; the commit hook reclaims the slot.
pub(crate) fn delete(
    store: &DualVersionStore,
    token: &mut TxnToken,
    key: Key,
) -> Result<Option<Value>, StoreError> {
    let mut g = store
        .locked_slot_of(key)
        .ok_or(StoreError::KeyNotFound(key))?;
    if g.live().is_none() {
        return Err(StoreError::KeyNotFound(key));
    }
    let old = g.clear_live();
    store.unlink(key)?;
    token.record(key, g.slot(), WriteKind::Delete);
    Ok(old)
}
