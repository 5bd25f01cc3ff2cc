// A header with nothing but comments still needs the pragma.
/* nothing here */
