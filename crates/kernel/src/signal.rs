//! Two-phase registers for the pin-accurate model.
//!
//! The paper's RTL reference model is simulated with a *2-step cycle-based*
//! engine: within one clock cycle every component first **evaluates** its
//! combinational logic based on the signal values visible at the start of
//! the cycle, and then all signal updates **commit** simultaneously. This is
//! the classic evaluate/update split that avoids ordering races between
//! components without resorting to delta cycles.
//!
//! [`Register`] implements that discipline for a single value, with an
//! explicit reset value so whole component states can be returned to
//! power-on conditions.

use std::fmt;

/// A clocked two-phase register with a reset value.
///
/// Reads during the evaluate phase observe the value committed at the end of
/// the *previous* cycle; loads are buffered and become visible only after
/// [`Register::commit`].
///
/// # Example
///
/// ```
/// use simkern::signal::Register;
///
/// let mut hgrant = Register::new(false);
/// hgrant.load(true);
/// assert!(!hgrant.get(), "load is not visible before commit");
/// hgrant.commit();
/// assert!(hgrant.get());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register<T> {
    current: T,
    next: T,
    reset_value: T,
}

impl<T: Clone> Register<T> {
    /// Creates a register that resets to `reset_value`.
    #[must_use]
    pub fn new(reset_value: T) -> Self {
        Register {
            current: reset_value.clone(),
            next: reset_value.clone(),
            reset_value,
        }
    }

    /// Returns the value visible in the current evaluate phase.
    #[must_use]
    pub fn get(&self) -> T {
        self.current.clone()
    }

    /// Schedules `value` to be loaded at the next commit.
    pub fn load(&mut self, value: T) {
        self.next = value;
    }

    /// Keeps the current value at the next commit.
    pub fn hold(&mut self) {
        self.next = self.current.clone();
    }

    /// Schedules the reset value to be loaded at the next commit.
    pub fn reset(&mut self) {
        self.next = self.reset_value.clone();
    }

    /// Immediately forces the register back to its reset value (both phases).
    pub fn reset_now(&mut self) {
        self.current = self.reset_value.clone();
        self.next = self.reset_value.clone();
    }

    /// Makes the scheduled value visible.
    pub fn commit(&mut self) {
        self.current = self.next.clone();
    }
}

impl<T: Clone + Default> Default for Register<T> {
    fn default() -> Self {
        Register::new(T::default())
    }
}

impl<T: fmt::Display> fmt::Display for Register<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_become_visible_only_after_commit() {
        let mut reg = Register::new(0u32);
        reg.load(7);
        assert_eq!(reg.get(), 0);
        reg.commit();
        assert_eq!(reg.get(), 7);
    }

    #[test]
    fn commit_without_write_is_stable() {
        let mut reg = Register::new(3u8);
        reg.commit();
        assert_eq!(reg.get(), 3);
        reg.load(5);
        reg.commit();
        reg.commit();
        assert_eq!(reg.get(), 5, "a committed load persists until replaced");
    }

    #[test]
    fn hold_discards_scheduled_write() {
        let mut reg = Register::new(1u8);
        reg.load(9);
        reg.hold();
        reg.commit();
        assert_eq!(reg.get(), 1);
    }

    #[test]
    fn last_write_in_a_cycle_wins() {
        let mut reg = Register::new(0u8);
        reg.load(1);
        reg.load(2);
        reg.commit();
        assert_eq!(reg.get(), 2);
    }

    #[test]
    fn register_resets_to_initial_value() {
        let mut reg = Register::new(0xAAu8);
        reg.load(0x55);
        reg.commit();
        assert_eq!(reg.get(), 0x55);
        reg.reset();
        reg.commit();
        assert_eq!(reg.get(), 0xAA);
    }

    #[test]
    fn register_reset_now_is_immediate() {
        let mut reg = Register::new(false);
        reg.load(true);
        reg.commit();
        assert!(reg.get());
        reg.load(true);
        reg.reset_now();
        assert!(!reg.get());
        reg.commit();
        assert!(!reg.get(), "reset_now also drops the scheduled load");
    }

    #[test]
    fn default_signal_uses_type_default() {
        let reg: Register<u16> = Register::default();
        assert_eq!(reg.get(), 0);
        assert_eq!(reg.to_string(), "0");
    }
}
