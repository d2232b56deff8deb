include Ra_journal.Frame
